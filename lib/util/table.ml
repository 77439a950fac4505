let pad ~left width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    if left then s ^ fill else fill ^ s

let render ~header ~rows () =
  let ncols =
    List.fold_left
      (fun acc row -> Int.max acc (List.length row))
      (List.length header) rows
  in
  let normalize row =
    let len = List.length row in
    if len >= ncols then row
    else row @ List.init (ncols - len) (fun _ -> "")
  in
  let header = normalize header in
  let rows = List.map normalize rows in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri
      (fun i cell -> widths.(i) <- Int.max widths.(i) (String.length cell))
      row
  in
  measure header;
  List.iter measure rows;
  let line row =
    row
    |> List.mapi (fun i cell -> pad ~left:(i = 0) widths.(i) cell)
    |> String.concat "  "
  in
  let rule =
    Array.to_list widths
    |> List.map (fun w -> String.make w '-')
    |> String.concat "  "
  in
  String.concat "\n" (line header :: rule :: List.map line rows)

let fmt_float ?(decimals = 2) x = Printf.sprintf "%.*f" decimals x
