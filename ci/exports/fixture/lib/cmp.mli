(* Exports nothing: the plants are polycmp's, not exports'. *)
