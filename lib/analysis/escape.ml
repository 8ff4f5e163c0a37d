(* R8/R9: the typed passes that look at closures.

   R8 (domain escape): a closure handed to Pool/Experiment/Shard runs
   on worker domains.  Any mutable value it captures from the
   enclosing scope — a ref, table, buffer, queue, record with mutable
   fields, or an array it writes — is shared across domains without
   synchronisation.  The pass is deliberately one closure deep and
   resolves let-bound task functions one level (the
   [let task = fun ... in Pool.parallel_map task] shape); it does not
   chase arbitrary call graphs.  Domain-local escape hatches are
   recognised structurally: values allocated inside the closure,
   state routed through Engine.Scratch, and code under
   [Mutex.protect] (or a [Mutex.lock]-led sequence).

   R9 (mutate during iteration): [Hashtbl.iter]/[fold] whose closure
   mutates the table being walked — the Ltp corner-map bug shape.
   Hashtbl semantics under concurrent mutation of the iterated table
   are unspecified, independent of domains. *)

let loc_line_col (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

let violation ~file ~zone rule loc fmt =
  let line, col = loc_line_col loc in
  let severity : Rule.severity =
    if zone = Lint.Test then Warning else Error
  in
  Printf.ksprintf
    (fun message -> { Rule.rule; severity; file; line; col; message })
    fmt

(* ------------------------------------------------------------------ *)
(* What one compilation unit binds *)

type st = {
  resolve : Resolve.t;
  (* Ident.unique_name -> (kind, source name) for bindings whose value
     is a mutable cell. *)
  mutable_binds : (string, string * string) Hashtbl.t;
  (* Ident.unique_name -> function literal, for one-level resolution
     of let-bound task closures. *)
  local_funs : (string, Typedtree.expression) Hashtbl.t;
}

(* The value a binding ultimately holds, looking through scaffolding. *)
let rec binding_head (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_let (_, _, body)
  | Texp_sequence (_, body)
  | Texp_open (_, body)
  | Texp_letmodule (_, _, _, _, body)
  | Texp_letexception (_, body) ->
      binding_head body
  | _ -> e

let head_name st (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some (Resolve.qualified st.resolve p)
  | _ -> None

let contains_component ~comp name =
  List.mem comp (String.split_on_char '.' name)

let mutable_kind name =
  match name with
  | "ref" -> Some "ref cell"
  | "Hashtbl.create" -> Some "hash table"
  | "Buffer.create" -> Some "buffer"
  | "Queue.create" -> Some "queue"
  | "Stack.create" -> Some "stack"
  | "Bytes.create" | "Bytes.make" -> Some "bytes buffer"
  | "Weak.create" -> Some "weak array"
  | _ -> None

let prepass resolve (str : Typedtree.structure) =
  let st =
    {
      resolve;
      mutable_binds = Hashtbl.create 32;
      local_funs = Hashtbl.create 32;
    }
  in
  let classify_binding id (rhs : Typedtree.expression) =
    let key = Ident.unique_name id in
    let h = binding_head rhs in
    match h.exp_desc with
    | Texp_function _ -> Hashtbl.replace st.local_funs key h
    | Texp_apply (f, _) -> (
        match head_name st f with
        | Some name when contains_component ~comp:"Scratch" name ->
            (* Engine.Scratch hands out per-domain storage: the
               sanctioned route for worker-local mutable state. *)
            ()
        | Some name -> (
            match mutable_kind name with
            | Some kind ->
                Hashtbl.replace st.mutable_binds key (kind, Ident.name id)
            | None -> ())
        | None -> ())
    | Texp_record { fields; _ }
      when Array.exists
             (fun ((lbl : Types.label_description), _) ->
               lbl.lbl_mut = Mutable)
             fields ->
        Hashtbl.replace st.mutable_binds key
          ("record with mutable fields", Ident.name id)
    | _ -> ()
  in
  let value_binding self (vb : Typedtree.value_binding) =
    (match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) -> classify_binding id vb.vb_expr
    | Tpat_alias (_, id, _) -> classify_binding id vb.vb_expr
    | _ -> ());
    Tast_iterator.default_iterator.value_binding self vb
  in
  let it = { Tast_iterator.default_iterator with value_binding } in
  it.structure it str;
  st

(* ------------------------------------------------------------------ *)
(* R8 *)

let triggers =
  [
    "Pool.parallel_map";
    "Pool.parallel_map_on";
    "Pool.parallel_run_on";
    "Pool.submit";
    "Experiment.points";
    "Experiment.point";
    "Experiment.sweep";
    "Experiment.compare_scenarios";
    "Experiment.suite";
    "Shard.run";
  ]

let suffix_match ~suffixes name =
  List.find_opt
    (fun s ->
      let ls = String.length s and ln = String.length name in
      ln >= ls
      && String.sub name (ln - ls) ls = s
      && (ln = ls || name.[ln - ls - 1] = '.'))
    suffixes

let array_write_arg name =
  (* Which positional argument is the array/bytes being written. *)
  match name with
  | "Array.set" | "Array.unsafe_set" | "Array.fill" | "Bytes.set"
  | "Bytes.unsafe_set" | "Bytes.fill" ->
      Some 0
  | "Array.blit" | "Bytes.blit" -> Some 2
  | _ -> None

let positional args =
  List.filter_map
    (function Asttypes.Nolabel, Some e -> Some e | _ -> None)
    args

let nth_opt l n = List.nth_opt l n

(* Function literals reachable in argument position without entering a
   function body: the task closures of one trigger call.  Nested
   closures are *not* collected here — the per-closure analysis walks
   into them with the outer locals still in scope. *)
let rec top_funs (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function _ -> [ e ]
  | Texp_apply (hd, args) ->
      top_funs hd
      @ List.concat_map
          (function _, Some a -> top_funs a | _, None -> [])
          args
  | Texp_tuple es -> List.concat_map top_funs es
  | Texp_construct (_, _, es) -> List.concat_map top_funs es
  | Texp_let (_, _, body) | Texp_sequence (_, body) | Texp_open (_, body) ->
      top_funs body
  | Texp_ifthenelse (_, e1, e2) ->
      top_funs e1 @ (match e2 with Some e2 -> top_funs e2 | None -> [])
  | _ -> []

let analyze_closure ~file ~zone ~trigger st (fn : Typedtree.expression) acc =
  let locals = Hashtbl.create 32 in
  let add_id id = Hashtbl.replace locals (Ident.unique_name id) () in
  let add_pat p = List.iter add_id (Typedtree.pat_bound_idents p) in
  let is_local id = Hashtbl.mem locals (Ident.unique_name id) in
  let guarded = ref false in
  let seen = Hashtbl.create 8 in
  let flag key loc fmt =
    Printf.ksprintf
      (fun detail ->
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          acc :=
            violation ~file ~zone R8 loc
              "%s — captured by a task passed to %s, so worker domains \
               share it unsynchronised; allocate it inside the closure, \
               route it through Engine.Scratch, or guard it with a mutex \
               (then suppress with the invariant)"
              detail trigger
            :: !acc
        end)
      fmt
  in
  let register_binders (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_function { param; cases; _ } ->
        add_id param;
        List.iter (fun (c : _ Typedtree.case) -> add_pat c.c_lhs) cases
    | Texp_let (_, vbs, _) ->
        List.iter (fun (vb : Typedtree.value_binding) -> add_pat vb.vb_pat) vbs
    | Texp_match (_, cases, _) ->
        List.iter (fun (c : _ Typedtree.case) -> add_pat c.c_lhs) cases
    | Texp_try (_, cases) ->
        List.iter (fun (c : _ Typedtree.case) -> add_pat c.c_lhs) cases
    | Texp_for (id, _, _, _, _, _) -> add_id id
    | _ -> ()
  in
  let expr (self : Tast_iterator.iterator) (e : Typedtree.expression) =
    register_binders e;
    match e.exp_desc with
    | Texp_apply (hd, _)
      when head_name st hd = Some "Mutex.protect" && not !guarded ->
        guarded := true;
        Tast_iterator.default_iterator.expr self e;
        guarded := false
    | Texp_sequence (e1, e2)
      when head_name st
             (match e1.exp_desc with Texp_apply (h, _) -> h | _ -> e1)
           = Some "Mutex.lock"
           && not !guarded ->
        self.expr self e1;
        guarded := true;
        self.expr self e2;
        guarded := false
    | Texp_ident (Path.Pident id, _, _) ->
        (if (not (is_local id)) && not !guarded then
           match Hashtbl.find_opt st.mutable_binds (Ident.unique_name id) with
           | Some (kind, name) ->
               flag (Ident.unique_name id) e.exp_loc "%s `%s` from the \
                 enclosing scope" kind name
           | None -> ());
        Tast_iterator.default_iterator.expr self e
    | Texp_setfield
        ({ exp_desc = Texp_ident (Path.Pident id, _, _); _ }, _, lbl, _) ->
        if (not (is_local id)) && not !guarded then
          flag (Ident.unique_name id) e.exp_loc
            "write to mutable field `%s` of `%s` from the enclosing scope"
            lbl.lbl_name (Ident.name id);
        Tast_iterator.default_iterator.expr self e
    | Texp_apply (hd, args) -> (
        (match head_name st hd with
        | Some name when not !guarded -> (
            match array_write_arg name with
            | Some i -> (
                match nth_opt (positional args) i with
                | Some { exp_desc = Texp_ident (Path.Pident id, _, _); exp_loc; _ }
                  when not (is_local id) ->
                    flag (Ident.unique_name id) exp_loc
                      "%s writes array `%s` from the enclosing scope" name
                      (Ident.name id)
                | _ -> ())
            | None -> ())
        | _ -> ());
        Tast_iterator.default_iterator.expr self e)
    | _ -> Tast_iterator.default_iterator.expr self e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it fn

let collect_r8 ~file ~zone st (str : Typedtree.structure) =
  let acc = ref [] in
  let expr (self : Tast_iterator.iterator) (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_apply (hd, args) -> (
        match head_name st hd with
        | Some name -> (
            match suffix_match ~suffixes:triggers name with
            | Some trigger ->
                List.iter
                  (fun (_, argo) ->
                    match argo with
                    | None -> ()
                    | Some (arg : Typedtree.expression) ->
                        let fns =
                          match arg.exp_desc with
                          | Texp_ident (Path.Pident id, _, _) -> (
                              match
                                Hashtbl.find_opt st.local_funs
                                  (Ident.unique_name id)
                              with
                              | Some f -> [ f ]
                              | None -> [])
                          | _ -> top_funs arg
                        in
                        List.iter
                          (fun f ->
                            analyze_closure ~file ~zone ~trigger st f acc)
                          fns)
                  args
            | None -> ())
        | None -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr self e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it str;
  !acc

(* ------------------------------------------------------------------ *)
(* R9 *)

let hashtbl_iterators = [ "Hashtbl.iter"; "Hashtbl.fold" ]

let hashtbl_mutators =
  [
    "Hashtbl.replace";
    "Hashtbl.add";
    "Hashtbl.remove";
    "Hashtbl.clear";
    "Hashtbl.reset";
    "Hashtbl.filter_map_inplace";
  ]

(* Structural identity of the iterated table: an ident (by unique
   name) or a field path rooted at one.  [None] means "cannot tell",
   which errs silent — R9 is a detector for the provable case. *)
let rec table_key st (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> Some ("i:" ^ Ident.unique_name id)
  | Texp_ident (p, _, _) -> Some ("p:" ^ Resolve.qualified st.resolve p)
  | Texp_field (b, _, lbl) ->
      Option.map (fun k -> k ^ "." ^ lbl.lbl_name) (table_key st b)
  | _ -> None

let collect_r9 ~file ~zone st (str : Typedtree.structure) =
  let acc = ref [] in
  let scan_closure ~iterator ~key ~table_name (f : Typedtree.expression) =
    let expr (self : Tast_iterator.iterator) (e : Typedtree.expression) =
      (match e.exp_desc with
      | Texp_apply (hd, args) -> (
          match head_name st hd with
          | Some name when List.mem name hashtbl_mutators -> (
              match positional args with
              | tbl :: _ when table_key st tbl = Some key ->
                  acc :=
                    violation ~file ~zone R9 e.exp_loc
                      "%s mutates `%s` while %s is iterating it — Hashtbl \
                       behaviour under mutation during iteration is \
                       unspecified (entries skipped or visited twice after \
                       a resize); collect the updates and apply them after \
                       the walk"
                      name table_name iterator
                  :: !acc
              | _ -> ())
          | _ -> ())
      | _ -> ());
      Tast_iterator.default_iterator.expr self e
    in
    let it = { Tast_iterator.default_iterator with expr } in
    it.expr it f
  in
  let expr (self : Tast_iterator.iterator) (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_apply (hd, args) -> (
        match head_name st hd with
        | Some name when List.mem name hashtbl_iterators -> (
            match positional args with
            | f :: tbl :: _ -> (
                match table_key st tbl with
                | Some key ->
                    let table_name =
                      match tbl.exp_desc with
                      | Texp_ident (Path.Pident id, _, _) -> Ident.name id
                      | Texp_field (_, lid, _) -> (
                          match Longident.flatten lid.txt with
                          | parts -> String.concat "." parts
                          | exception _ -> "the table")
                      | _ -> "the table"
                    in
                    let fns =
                      match f.exp_desc with
                      | Texp_ident (Path.Pident id, _, _) -> (
                          match
                            Hashtbl.find_opt st.local_funs
                              (Ident.unique_name id)
                          with
                          | Some fn -> [ fn ]
                          | None -> [])
                      | _ -> [ f ]
                    in
                    List.iter
                      (scan_closure ~iterator:name ~key ~table_name)
                      fns
                | None -> ())
            | _ -> ())
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr self e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it str;
  !acc

(* ------------------------------------------------------------------ *)

let collect ~file ~zone resolve (str : Typedtree.structure) =
  let st = prepass resolve str in
  collect_r8 ~file ~zone st str @ collect_r9 ~file ~zone st str
