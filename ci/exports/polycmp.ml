(* polycmp ROOT: the polymorphic comparisons left in ROOT/lib.

   Reads the .cmt files that [dune build @check] leaves under ROOT (a dune
   build directory such as _build/default) and prints one finding per line,
   sorted, as [file:line: what]:

   - [Stdlib.min] and [Stdlib.max], applied or passed as values: they are
     compiled once for every type, so even on ints and floats each call
     runs the runtime's generic compare in C (write [Int.min], or
     [Ispn_util.Fcmp.fmin] on floats);
   - [List.mem], [List.assoc], [List.assoc_opt], [List.mem_assoc],
     [List.remove_assoc] and [Array.mem], which compare with the generic
     compare inside (write [List.exists] or [List.find_opt] with a typed
     equality);
   - a comparison primitive ([=], [<>], [<], [>], [<=], [>=], [compare]
     and every alias of them) at an operand type that the compiler does
     not specialise: anything but int, char, an immediate type, float,
     string, bytes, int32, int64 and nativeint.  Records, tuples, options
     and type variables (a generic helper's [a = b]) are findings.

   The rule reads the operand type only.  So it also reports [x = None],
   which the compiler happens to reduce to an immediate test: write
   [Option.is_none x] or a [match].  The generic [Hashtbl] hashes as well
   as compares, and is out of its scope.

   Each typed tree's environment is rebuilt from its summary through the
   load path the compiler recorded, so an abstract or abbreviated type is
   classified as the compiler saw it at that site.  Load_path.init's
   signature and the .cmt layout are those of OCaml 5.1: the tool and its
   test are built on OCaml < 5.2 only, like exports.exe. *)

open Typedtree

let rec files_under dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files_under p else [ p ])

(* Stdlib functions that take no comparison and use the generic one. *)
let generic_users =
  [ "List.mem"; "List.assoc"; "List.assoc_opt"; "List.mem_assoc";
    "List.remove_assoc"; "Array.mem" ]

(* [Stdlib.List.mem] and [Stdlib__List.mem] are both [List.mem]. *)
let stdlib_name p =
  let n = Path.name p in
  let strip pre s =
    let k = String.length pre in
    if String.length s > k && String.equal (String.sub s 0 k) pre then
      Some (String.sub s k (String.length s - k))
    else None
  in
  match strip "Stdlib." n with
  | Some s -> Some s
  | None -> strip "Stdlib__" n

let comparisons =
  [ "%equal"; "%notequal"; "%lessthan"; "%greaterthan"; "%lessequal";
    "%greaterequal"; "%compare" ]

(* The operand types that Translprim.specialize_comparison compiles to a
   typed compare. *)
let specialised env ty =
  match Typeopt.is_function_type env ty with
  | None -> false
  | Some (lhs, _) ->
      Typeopt.maybe_pointer_type env lhs = Lambda.Immediate
      || List.exists (Typeopt.is_base_type env lhs)
           Predef.
             [ path_int; path_char; path_float; path_string; path_bytes;
               path_int32; path_int64; path_nativeint ]

(* A type as the compiler prints it, on one line. *)
let one_line ty =
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_set_margin ppf 1_000;
  Format.fprintf ppf "%a@?" Printtyp.type_expr ty;
  Buffer.contents buf

(* Every directory under [dir] that holds a compiled interface. *)
let cmi_dirs dir =
  files_under dir
  |> List.filter (fun f -> Filename.check_suffix f ".cmi")
  |> List.map Filename.dirname
  |> List.sort_uniq String.compare

(* The compiler recorded its load path relative to a build root that dune
   maps away, so lib/'s own interfaces come from [lib_dirs] and only the
   absolute entries (the stdlib, installed packages) are read back. *)
let findings_of lib_dirs (cmt : Cmt_format.cmt_infos) str =
  Load_path.init ~auto_include:Load_path.no_auto_include
    (lib_dirs @ List.filter (fun d -> not (Filename.is_relative d))
                  cmt.cmt_loadpath);
  Envaux.reset_cache ();
  let found = ref [] in
  let report (e : expression) what =
    let pos = e.exp_loc.loc_start in
    found :=
      Printf.sprintf "%s:%d: %s" pos.pos_fname pos.pos_lnum what :: !found
  in
  let default = Tast_iterator.default_iterator in
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (p, _, vd) -> (
        match (stdlib_name p, vd.val_kind) with
        | Some ("min" | "max"), _ ->
            report e (Path.name p ^ ", a polymorphic compare at any type")
        | Some n, _ when List.mem n generic_users ->
            report e (Path.name p ^ ", a polymorphic compare inside")
        | _, Val_prim { prim_name; _ } when List.mem prim_name comparisons -> (
            match Envaux.env_of_only_summary e.exp_env with
            | env when specialised env e.exp_type -> ()
            | _ -> report e (Path.name p ^ " at " ^ one_line e.exp_type)
            | exception Envaux.Error _ ->
                report e
                  (Path.name p ^ " where the environment is not rebuilt"))
        | _ -> ())
    | _ -> ());
    default.expr sub e
  in
  let it = { default with expr } in
  it.structure it str;
  !found

let () =
  let root = match Sys.argv with [| _; r |] -> r | _ -> exit 2 in
  let lib = Filename.concat root "lib" in
  let lib_dirs = cmi_dirs lib in
  let findings =
    files_under lib
    |> List.concat_map (fun f ->
           if not (Filename.check_suffix f ".cmt") then []
           else
             let cmt = Cmt_format.read_cmt f in
             match cmt.cmt_annots with
             | Implementation str -> findings_of lib_dirs cmt str
             | _ -> [])
  in
  List.iter print_endline (List.sort_uniq String.compare findings)
