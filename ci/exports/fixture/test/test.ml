let () = print_int (Plant_lib.Plant.test_only (Plant_lib.Plant.scale ~factor:3 1))
