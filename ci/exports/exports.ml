(* exports ROOT: the exports of ROOT/lib that earn no place.

   Reads the .cmt/.cmti files that [dune build @check] leaves under ROOT
   (a dune build directory such as _build/default) and prints two
   sorted lists, one finding per line:

   - [Mod.value]: a value that a lib/ interface exports and that no other
     module references;
   - [Mod.fn ?arg]: an optional argument of an exported function that no
     call site outside [Mod] passes.

   Users are the modules under ROOT's lib, bin, bench, examples and
   perfbench directories; test/ is not a user.  A reference to a function
   that is not applied counts as passing all of its optional arguments. *)

open Typedtree

let user_dirs = [ "lib"; "bin"; "bench"; "examples"; "perfbench" ]

let rec files_under dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files_under p else [ p ])

(* A compilation unit's name as its source spells it: [Ispn_util__Ring]
   is [Ring]. *)
let short unit =
  let rec from i =
    if i < 1 then unit
    else if unit.[i] = '_' && unit.[i - 1] = '_' then
      String.sub unit (i + 1) (String.length unit - i - 1)
    else from (i - 1)
  in
  from (String.length unit - 1)

(* The optional labels of a function type, in order. *)
let rec optionals ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, ret, _) -> l :: optionals ret
  | Tarrow (_, _, ret, _) | Tpoly (ret, _) -> optionals ret
  | _ -> []

(* Each exported value of a unit, keyed "Unit.Sub.name", with its
   optional labels. *)
let rec exports prefix sg =
  List.concat_map
    (function
      | Types.Sig_value (id, vd, _) ->
          [ (prefix ^ "." ^ Ident.name id, optionals vd.val_type) ]
      | Sig_module (id, _, { md_type = Mty_signature sg; _ }, _, _) ->
          exports (prefix ^ "." ^ Ident.name id) sg
      | _ -> [])
    sg

let () =
  let root = match Sys.argv with [| _; r |] -> r | _ -> exit 2 in
  (* Every typed tree under the user directories, by unit name: dune
     names every executable's main unit alike, so a name can repeat. *)
  let annots = Hashtbl.create 256 in
  List.iter
    (fun dir ->
      List.iter
        (fun f ->
          if Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti"
          then
            let cmt = Cmt_format.read_cmt f in
            if Option.fold ~none:false
                 ~some:(fun s -> not (Filename.check_suffix s ".ml-gen"))
                 cmt.cmt_sourcefile
            then Hashtbl.add annots cmt.cmt_modname (dir, cmt.cmt_annots))
        (files_under (Filename.concat root dir)))
    user_dirs;
  (* Each lib/ unit's interface (or, without one, its implementation's
     signature), and every implementation. *)
  let units = Hashtbl.create 64 and impls = ref [] in
  Hashtbl.iter
    (fun unit (dir, annot) ->
      match (annot : Cmt_format.binary_annots) with
      | Interface s when dir = "lib" -> Hashtbl.replace units unit s.sig_type
      | Implementation s ->
          impls := (unit, s) :: !impls;
          if dir = "lib" && not (Hashtbl.mem units unit) then
            Hashtbl.replace units unit s.str_type
      | _ -> ())
    annots;
  let exported = Hashtbl.create 512 in
  Hashtbl.iter
    (fun unit sg ->
      List.iter
        (fun (key, opts) -> Hashtbl.replace exported key opts)
        (exports unit sg))
    units;
  let used = Hashtbl.create 512 and passed = Hashtbl.create 512 in
  List.iter
    (fun (user, str) ->
      let aliases = Hashtbl.create 16 in
      (* A value path as "Unit.Sub.name", through module aliases and the
         wrapper module dune makes for each library. *)
      let rec names = function
        | Path.Pident id -> (
            match Hashtbl.find_opt aliases id with
            | Some p -> names p
            | None -> [ Ident.name id ])
        | Pdot (p, s) -> names p @ [ s ]
        | _ -> []
      in
      let key p =
        match names p with
        | w :: m :: rest when Hashtbl.mem units (w ^ "__" ^ m) ->
            Some (w ^ "__" ^ m, rest)
        | u :: rest when Hashtbl.mem units u -> Some (u, rest)
        | _ -> None
      in
      let use p passes =
        match key p with
        | Some (unit, rest) when unit <> user -> (
            let k = String.concat "." (unit :: rest) in
            match Hashtbl.find_opt exported k with
            | Some opts ->
                Hashtbl.replace used k ();
                List.iter
                  (fun l -> if passes l then Hashtbl.replace passed (k, l) ())
                  opts
            | None -> ())
        | _ -> ()
      in
      let alias id (me : module_expr) =
        match me.mod_desc with
        | Tmod_ident (p, _)
        | Tmod_constraint ({ mod_desc = Tmod_ident (p, _); _ }, _, _, _) ->
            Hashtbl.replace aliases id p
        | _ -> ()
      in
      let default = Tast_iterator.default_iterator in
      let expr sub e =
        match e.exp_desc with
        | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
            (* An omitted optional argument is filled in with a [None]
               that has no location. *)
            let given l =
              List.exists
                (function
                  | Asttypes.Optional l', Some a ->
                      l = l' && not a.exp_loc.loc_ghost
                  | _ -> false)
                args
            in
            use p given;
            List.iter
              (fun (_, a) -> Option.iter (sub.Tast_iterator.expr sub) a)
              args
        | Texp_ident (p, _, _) -> use p (fun _ -> true)
        | Texp_letmodule (Some id, _, _, me, _) ->
            alias id me;
            default.expr sub e
        | _ -> default.expr sub e
      in
      let module_binding sub mb =
        Option.iter (fun id -> alias id mb.mb_expr) mb.mb_id;
        default.module_binding sub mb
      in
      let it = { default with expr; module_binding } in
      it.structure it str)
    !impls;
  let short_key k =
    match String.index_opt k '.' with
    | Some i -> short (String.sub k 0 i) ^ String.sub k i (String.length k - i)
    | None -> k
  in
  let values = ref [] and args = ref [] in
  Hashtbl.iter
    (fun k opts ->
      if not (Hashtbl.mem used k) then values := short_key k :: !values
      else
        List.iter
          (fun l ->
            if not (Hashtbl.mem passed (k, l)) then
              args := (short_key k ^ " ?" ^ l) :: !args)
          opts)
    exported;
  List.iter print_endline (List.sort compare !values);
  List.iter print_endline (List.sort compare !args)
