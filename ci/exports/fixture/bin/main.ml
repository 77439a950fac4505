module P = Plant_lib.Plant

let () = print_int (P.used (P.scale ~offset:1 2))
