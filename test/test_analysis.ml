(* Tests for the mklint analysis library: the Sorted helper, each rule
   (positive, negative, suppressed, baseline-excluded fixtures), the
   typed .cmt stage (R7 alias resolution, R8 domain escape, R9 mutate
   during iteration — compiled fixture cmts), hash-keyed baselines,
   JSON/SARIF shape and stability under permutation, and a regression
   check that the live tree lints clean under both stages. *)

open Mk_lint

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let rules_of vs = List.map (fun (v : Rule.violation) -> v.rule) vs
let count_rule r vs = List.length (List.filter (fun v -> v = r) (rules_of vs))

(* ------------------------------------------------------------------ *)
(* Fixture trees on disk *)

let rec mkdirs path =
  if not (Sys.file_exists path) then begin
    mkdirs (Filename.dirname path);
    Sys.mkdir path 0o755
  end

let tmp_root () =
  let f = Filename.temp_file "mklint-fixture" "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

let write root rel contents =
  let path = Filename.concat root rel in
  mkdirs (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

(* ------------------------------------------------------------------ *)
(* Sorted *)

let test_sorted_bindings () =
  let t = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace t k v) [ (3, "c"); (1, "a"); (2, "b") ];
  Alcotest.(check (list (pair int string)))
    "key-sorted" [ (1, "a"); (2, "b"); (3, "c") ]
    (Mk_analysis.Sorted.bindings t);
  Hashtbl.add t 1 "shadow";
  check_str "most recent binding wins" "shadow"
    (List.assoc 1 (Mk_analysis.Sorted.bindings t));
  Alcotest.(check (list int)) "keys deduplicated" [ 1; 2; 3 ] (Mk_analysis.Sorted.keys t)

let sorted_model_qcheck =
  QCheck.Test.make ~name:"Sorted.bindings = sorted last-write assoc" ~count:200
    QCheck.(list (pair (int_range 0 20) small_int))
    (fun kvs ->
      let t = Hashtbl.create 16 in
      List.iter (fun (k, v) -> Hashtbl.replace t k v) kvs;
      let model =
        List.sort_uniq compare (List.map fst kvs)
        |> List.map (fun k ->
               (k, snd (List.find (fun (k', _) -> k' = k) (List.rev kvs))))
      in
      Mk_analysis.Sorted.bindings t = model)

(* ------------------------------------------------------------------ *)
(* Per-rule fixtures, via lint_string (no filesystem) *)

let test_r1_wall_clock () =
  let bad = "let now () = Unix.gettimeofday () +. Sys.time ()\n" in
  check_int "two reads flagged in lib/" 2
    (count_rule R1 (Lint.lint_string ~file:"lib/engine/simx.ml" bad));
  check_int "bin/ also flagged" 1
    (count_rule R1 (Lint.lint_string ~file:"bin/simos.ml" "let t = Unix.time ()\n"));
  check_int "bench/ may read the wall clock" 0
    (count_rule R1 (Lint.lint_string ~file:"bench/probe.ml" bad));
  check_int "DES clock is fine" 0
    (count_rule R1 (Lint.lint_string ~file:"lib/engine/simx.ml" "let now sim = Sim.now sim\n"))

let test_r2_ambient_random () =
  check_int "Random.self_init flagged" 1
    (count_rule R2
       (Lint.lint_string ~file:"lib/noise/jit.ml" "let () = Random.self_init ()\n"));
  check_int "Random.int flagged, even in bench/" 1
    (count_rule R2 (Lint.lint_string ~file:"bench/probe.ml" "let x = Random.int 5\n"));
  check_int "the PRNG home is exempt" 0
    (count_rule R2
       (Lint.lint_string ~file:"lib/engine/rng.ml" "let x = Random.State.make [| 3 |]\n"));
  check_int "seeded Engine.Rng is the sanctioned path" 0
    (count_rule R2
       (Lint.lint_string ~file:"lib/noise/jit.ml" "let x rng = Mk_engine.Rng.int rng 5\n"))

let test_r3_hash_iteration () =
  let bad = "let dump t = Hashtbl.iter (fun k _ -> ignore k) t\n" in
  let sev file =
    match
      List.filter
        (fun (v : Rule.violation) -> v.rule = R3)
        (Lint.lint_string ~file bad)
    with
    | [ v ] -> Rule.severity_to_string v.severity
    | vs -> Printf.sprintf "%d findings" (List.length vs)
  in
  check_str "error in the report layer" "error" (sev "lib/cluster/report.ml");
  check_str "error in bench writers" "error" (sev "bench/main.ml");
  check_str "warning elsewhere in lib/" "warning" (sev "lib/mem/somewhere.ml");
  check_int "Sorted.bindings is the sanctioned path" 0
    (count_rule R3
       (Lint.lint_string ~file:"lib/cluster/report.ml"
          "let dump t = Mk_analysis.Sorted.bindings t\n"))

let test_r4_global_mutable () =
  check_int "top-level Hashtbl flagged" 1
    (count_rule R4
       (Lint.lint_string ~file:"lib/kernel/glob.ml" "let cache = Hashtbl.create 16\n"));
  check_int "top-level ref flagged, also inside sub-modules" 2
    (count_rule R4
       (Lint.lint_string ~file:"lib/kernel/glob.ml"
          "let hits = ref 0\nmodule M = struct let misses = ref 0 end\n"));
  check_int "constructor under scaffolding still flagged" 1
    (count_rule R4
       (Lint.lint_string ~file:"lib/kernel/glob.ml"
          "let cell = let n = 16 in ref n\n"));
  check_int "function allocating per call is fine" 0
    (count_rule R4
       (Lint.lint_string ~file:"lib/kernel/glob.ml"
          "let make () = Hashtbl.create 16\n"));
  check_int "construction-time scratch table is fine" 0
    (count_rule R4
       (Lint.lint_string ~file:"lib/kernel/glob.ml"
          "let corpus = let t = Hashtbl.create 3 in Hashtbl.length t :: []\n"));
  check_int "bench/ executables may keep globals" 0
    (count_rule R4 (Lint.lint_string ~file:"bench/main.ml" "let best = Hashtbl.create 4\n"))

let test_r5_stdout () =
  check_int "print_endline flagged in lib/" 1
    (count_rule R5
       (Lint.lint_string ~file:"lib/apps/chatty.ml" "let f () = print_endline \"x\"\n"));
  check_int "Printf.printf flagged in lib/" 1
    (count_rule R5
       (Lint.lint_string ~file:"lib/apps/chatty.ml" "let f () = Printf.printf \"x\"\n"));
  check_int "the report layer owns stdout" 0
    (count_rule R5
       (Lint.lint_string ~file:"lib/engine/table.ml" "let f s = print_string s\n"));
  check_int "formatter-parameterised printing is fine" 0
    (count_rule R5
       (Lint.lint_string ~file:"lib/apps/chatty.ml"
          "let pp ppf = Format.pp_print_string ppf \"x\"\n"));
  check_int "bin/ prints freely" 0
    (count_rule R5 (Lint.lint_string ~file:"bin/simos.ml" "let f () = print_endline \"x\"\n"))

let test_parse_failure () =
  match Lint.lint_string ~file:"lib/zz/bad.ml" "let = in +++\n" with
  | [ v ] ->
      check_str "parse rule" "parse" (Rule.id_to_string v.rule);
      check_str "error severity" "error" (Rule.severity_to_string v.severity)
  | vs -> Alcotest.failf "expected one parse violation, got %d" (List.length vs)

let test_zone_test () =
  let sev rule file src =
    match
      List.filter (fun (v : Rule.violation) -> v.rule = rule)
        (Lint.lint_string ~file src)
    with
    | [ v ] -> Rule.severity_to_string v.severity
    | vs -> Printf.sprintf "%d findings" (List.length vs)
  in
  check_str "R1 is a warning in test/ (harness timing is legal)" "warning"
    (sev R1 "test/test_foo.ml" "let t = Unix.gettimeofday ()\n");
  check_str "R2 is a warning in test/" "warning"
    (sev R2 "test/test_foo.ml" "let x = Random.int 5\n");
  let iter = "let dump t = Hashtbl.iter (fun _ _ -> ()) t\n" in
  check_str "R3 is an error in fixture writers" "error"
    (sev R3 "test/test_analysis.ml" iter);
  check_str "R3 stays a warning in other tests" "warning"
    (sev R3 "test/test_foo.ml" iter)

(* ------------------------------------------------------------------ *)
(* Suppression, baseline, R6: need a tree on disk *)

let test_suppression () =
  let root = tmp_root () in
  write root "lib/a/one.ml"
    "(* mklint: allow R3 — order-independent sum. *)\n\
     let total t = Hashtbl.fold (fun _ v a -> a + v) t 0\n";
  write root "lib/a/one.mli" "val total : (int, int) Hashtbl.t -> int\n";
  write root "lib/a/two.ml"
    "(* mklint: allow R4 — single-domain CLI knob, set before\n\
    \   any worker domain exists. *)\n\
     let knob = ref 1\n";
  write root "lib/a/two.mli" "val knob : int ref\n";
  write root "lib/a/three.ml"
    "(* mklint: allow-file R5 — this module is a designated debug sink. *)\n\
     let f () = print_endline \"x\"\n\
     let g () = print_endline \"y\"\n";
  write root "lib/a/three.mli" "val f : unit -> unit\nval g : unit -> unit\n";
  write root "lib/a/four.ml"
    "(* mklint: allow R3 — wrong rule for the construct below. *)\n\
     let knob = ref 1\n";
  write root "lib/a/four.mli" "val knob : int ref\n";
  let r = Lint.lint_tree ~root ~baseline:Baseline.empty () in
  check_int "no active errors from one/two/three" 1 (List.length (Lint.errors r));
  check_str "the unmatched rule id does not suppress" "lib/a/four.ml"
    (match Lint.errors r with [ v ] -> v.file | _ -> "?");
  check_int "suppressed findings are still reported" 4
    (List.length
       (List.filter (fun (_, st) -> st = Lint.Suppressed) r.findings))

let test_baseline () =
  let root = tmp_root () in
  write root "lib/b/legacy.ml" "let cache = Hashtbl.create 16\n";
  write root "lib/b/legacy.mli" "val cache : (int, int) Hashtbl.t\n";
  write root ".mklint-baseline" "# tolerated\nR4 lib/b/legacy.ml:1\n";
  let baseline =
    match Baseline.load (Filename.concat root ".mklint-baseline") with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  let r = Lint.lint_tree ~root ~baseline () in
  check_int "baselined finding does not gate" 0 (List.length (Lint.errors r));
  check_int "but is visible in the report" 1
    (List.length (List.filter (fun (_, st) -> st = Lint.Baselined) r.findings));
  (* A new instance in the same file is NOT covered. *)
  write root "lib/b/legacy.ml" "let pad = ()\nlet cache = Hashtbl.create 16\n";
  let r = Lint.lint_tree ~root ~baseline () in
  check_int "moved finding resurfaces" 1 (List.length (Lint.errors r));
  check_bool "missing baseline file loads empty" true
    (match Baseline.load (Filename.concat root "no-such-file") with
    | Ok b -> Baseline.is_empty b
    | Error _ -> false);
  check_bool "malformed baseline is an error, not 'allow all'" true
    (match
       write root "bad-baseline" "R9 nowhere:zz\n";
       Baseline.load (Filename.concat root "bad-baseline")
     with
    | Error _ -> true
    | Ok _ -> false)

let test_r6_missing_mli () =
  let root = tmp_root () in
  write root "lib/c/bare.ml" "let x = 1\n";
  write root "lib/c/dressed.ml" "let x = 1\n";
  write root "lib/c/dressed.mli" "val x : int\n";
  let r = Lint.lint_tree ~root ~baseline:Baseline.empty () in
  let r6 = List.filter (fun (v : Rule.violation) -> v.rule = R6) (Lint.active r) in
  check_int "exactly the bare module flagged" 1 (List.length r6);
  check_str "as a warning" "warning"
    (match r6 with [ v ] -> Rule.severity_to_string v.severity | _ -> "?");
  check_int "warnings do not gate --ci" 0 (List.length (Lint.errors r))

(* ------------------------------------------------------------------ *)
(* Hash-keyed baselines *)

let test_baseline_hash_keys () =
  let root = tmp_root () in
  let flagged = "let cache = Hashtbl.create 16" in
  let baselined r =
    List.length (List.filter (fun (_, st) -> st = Lint.Baselined) r.Lint.findings)
  in
  write root "lib/b/h.ml" (flagged ^ "\n");
  write root "lib/b/h.mli" "val cache : (int, int) Hashtbl.t\n";
  write root ".mklint-baseline"
    (Printf.sprintf "R4 lib/b/h.ml:%s\n" (Baseline.hash_of_line flagged));
  let baseline =
    match Baseline.load (Filename.concat root ".mklint-baseline") with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  let r = Lint.lint_tree ~root ~baseline () in
  check_int "hash-keyed entry tolerates the finding" 0
    (List.length (Lint.errors r));
  (* Unrelated edits above the finding shift its line; the content
     hash still matches — the brittleness the key change fixes. *)
  write root "lib/b/h.ml" ("let pad = ()\nlet pad2 = ()\n" ^ flagged ^ "\n");
  let r = Lint.lint_tree ~root ~baseline () in
  check_int "line shift does not resurface it" 0 (List.length (Lint.errors r));
  check_int "still visible as baselined" 1 (baselined r);
  (* Rewriting the flagged line itself does resurface it. *)
  write root "lib/b/h.ml" "let cache2 = Hashtbl.create 16\n";
  let r = Lint.lint_tree ~root ~baseline () in
  check_int "changed line resurfaces" 1 (List.length (Lint.errors r));
  (* --update-baseline migration path: render emits hash entries that
     load and match again. *)
  let v = match Lint.errors r with [ v ] -> v | _ -> Alcotest.fail "one" in
  write root ".mb2"
    (Baseline.render [ (v, Lint.source_line ~root ~file:v.file v.line) ]);
  let migrated =
    match Baseline.load (Filename.concat root ".mb2") with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  let r = Lint.lint_tree ~root ~baseline:migrated () in
  check_int "rendered baseline round-trips" 0 (List.length (Lint.errors r))

(* ------------------------------------------------------------------ *)
(* The typed stage, on compiled fixture cmts *)

let ocamlc_available =
  lazy (Sys.command "ocamlc -version > /dev/null 2>&1" = 0)

(* Compile one fixture with -bin-annot and return its cmt path.  The
   claimed root-relative [rel] decides the zone when linting; the cmt
   itself can live anywhere. *)
let compile_fixture root rel contents =
  write root rel contents;
  let dir = Filename.concat root (Filename.dirname rel) in
  let base = Filename.basename rel in
  let cmd =
    Printf.sprintf "cd %s && ocamlc -I +unix -bin-annot -c %s > /dev/null 2>&1"
      (Filename.quote dir) (Filename.quote base)
  in
  if Sys.command cmd <> 0 then Alcotest.failf "fixture %s does not compile" rel;
  Filename.concat dir (Filename.remove_extension base ^ ".cmt")

let typed_fixture rel contents =
  let root = tmp_root () in
  let cmt = compile_fixture root rel contents in
  Typed_lint.lint_cmt ~file:rel cmt

let r7_fixture =
  "module U = Unix\n\
   let a () = U.gettimeofday ()\n\
   let b () = let open Unix in gettimeofday ()\n\
   let c () = let open Random in int 5\n\
   let d () = Unix.gettimeofday ()\n"

let test_r7_alias_resolution () =
  if not (Lazy.force ocamlc_available) then ()
  else begin
    let vs = typed_fixture "lib/fix/case_r7.ml" r7_fixture in
    check_int "alias + two let-opens flagged, direct use left syntactic" 3
      (count_rule R7 vs);
    check_bool "messages name both spellings" true
      (List.exists
         (fun (v : Rule.violation) ->
           v.rule = R7
           && String.length v.message > 0
           && v.line = 2 (* U.gettimeofday *))
         vs);
    (* Zone severity plumbs through the typed stage: the same content
       in test/ downgrades R1/R2 re-checks to warnings. *)
    let vs = typed_fixture "test/fix/case_r7.ml" r7_fixture in
    check_bool "R7 findings are warnings in test/" true
      (List.for_all
         (fun (v : Rule.violation) -> v.severity = Rule.Warning)
         (List.filter (fun (v : Rule.violation) -> v.rule = R7) vs))
  end

let r8_fixture =
  "module Pool = struct let parallel_map f xs = List.map f xs end\n\
   module Scratch = struct\n\
  \  let int_array ~tag:_ ~len ~init = Array.make len init\n\
   end\n\
   let total = ref 0\n\
   let log = Buffer.create 16\n\
   let task x = Buffer.add_string log \"x\"; x\n\
   let m = Mutex.create ()\n\
   let last = ref 0\n\
   let p1 xs = Pool.parallel_map (fun x -> total := !total + x; x) xs\n\
   let p2 xs = Pool.parallel_map task xs\n\
   let n1 xs =\n\
  \  Pool.parallel_map\n\
  \    (fun x ->\n\
  \      let t = Hashtbl.create 4 in\n\
  \      Hashtbl.replace t x x;\n\
  \      Hashtbl.length t)\n\
  \    xs\n\
   let n2 xs =\n\
  \  Pool.parallel_map\n\
  \    (fun x ->\n\
  \      let buf = Scratch.int_array ~tag:\"w\" ~len:4 ~init:0 in\n\
  \      buf.(0) <- x;\n\
  \      buf.(0))\n\
  \    xs\n\
   let n3 xs =\n\
  \  Pool.parallel_map (fun x -> Mutex.protect m (fun () -> last := x); x) xs\n"

let test_r8_domain_escape () =
  if not (Lazy.force ocamlc_available) then ()
  else begin
    let vs = typed_fixture "lib/fix/case_r8.ml" r8_fixture in
    let r8 = List.filter (fun (v : Rule.violation) -> v.rule = R8) vs in
    check_int "exactly the two escaping captures flagged" 2 (List.length r8);
    check_bool "the planted ref capture is one of them" true
      (List.exists
         (fun (v : Rule.violation) ->
           v.line = 10
           && String.length v.message >= 8
           && String.sub v.message 0 8 = "ref cell")
         r8);
    check_bool "the let-bound task closure is resolved one level" true
      (List.exists
         (fun (v : Rule.violation) ->
           v.line = 7
           && String.length v.message >= 6
           && String.sub v.message 0 6 = "buffer")
         r8);
    (* The three negatives: closure-local table (n1), Scratch-routed
       per-domain state (n2), mutex-guarded shared state (n3). *)
    check_bool "no finding past line 11" true
      (List.for_all (fun (v : Rule.violation) -> v.line <= 11) r8)
  end

let r9_fixture =
  "type t = { corners : (int, int) Hashtbl.t }\n\
   let prune t =\n\
  \  Hashtbl.iter\n\
  \    (fun k v -> if v = 0 then Hashtbl.remove t.corners k)\n\
  \    t.corners\n\
   let ok t =\n\
  \  let dead =\n\
  \    Hashtbl.fold (fun k v acc -> if v = 0 then k :: acc else acc) t.corners []\n\
  \  in\n\
  \  List.iter (Hashtbl.remove t.corners) dead\n"

let test_r9_mutate_during_iteration () =
  if not (Lazy.force ocamlc_available) then ()
  else begin
    let vs = typed_fixture "lib/fix/case_r9.ml" r9_fixture in
    check_int "the Ltp corner-map shape is flagged once" 1 (count_rule R9 vs);
    check_bool "at the mutation site inside the iter closure" true
      (match List.filter (fun (v : Rule.violation) -> v.rule = R9) vs with
      | [ v ] -> v.line = 4
      | _ -> false)
  end

(* ------------------------------------------------------------------ *)
(* JSON determinism *)

let permutation_root =
  lazy
    (let root = tmp_root () in
     write root "lib/p/alpha.ml" "let now () = Unix.gettimeofday ()\n";
     write root "lib/p/beta.ml" "let x = Random.int 5\n";
     write root "lib/p/gamma.ml"
       "let dump t = Hashtbl.iter (fun _ _ -> ()) t\nlet cell = ref 0\n";
     write root "bench/delta.ml" "let t = Unix.gettimeofday ()\n";
     root)

let permutation_files =
  [ "lib/p/alpha.ml"; "lib/p/beta.ml"; "lib/p/gamma.ml"; "bench/delta.ml" ]

let json_of files =
  let root = Lazy.force permutation_root in
  Mk_engine.Json.to_string_pretty
    (Lint.to_json (Lint.lint_files ~root ~baseline:Baseline.empty files))

let json_permutation_qcheck =
  QCheck.Test.make ~name:"JSON report is stable under file-order permutation"
    ~count:50
    (QCheck.make (QCheck.Gen.shuffle_l permutation_files))
    (fun files -> json_of files = json_of permutation_files)

let test_json_shape () =
  match Mk_engine.Json.of_string (json_of permutation_files) with
  | Error e -> Alcotest.fail e
  | Ok (Mk_engine.Json.Obj fields) ->
      check_str "schema" "mklint/1"
        (match List.assoc "schema" fields with
        | Mk_engine.Json.String s -> s
        | _ -> "?");
      check_bool "has findings array" true
        (match List.assoc "findings" fields with
        | Mk_engine.Json.List (_ :: _) -> true
        | _ -> false)
  | Ok _ -> Alcotest.fail "expected a JSON object"

(* Fabricated typed-stage findings over the permutation fixtures: the
   merged report must not depend on the order the cmt walk yields
   them in. *)
let fabricated_typed =
  let v rule file line col message : Rule.violation =
    { rule; severity = Error; file; line; col; message }
  in
  [
    v R7 "lib/p/alpha.ml" 1 13 "`W.gettimeofday` resolves to Unix.gettimeofday";
    v R8 "lib/p/beta.ml" 1 8 "ref cell `x` from the enclosing scope";
    v R9 "lib/p/gamma.ml" 1 13 "Hashtbl.remove mutates `t`";
    v R8 "lib/p/gamma.ml" 2 4 "buffer `b` from the enclosing scope";
  ]

let merged_json vs =
  let root = Lazy.force permutation_root in
  let base = Lint.lint_files ~root ~baseline:Baseline.empty permutation_files in
  Mk_engine.Json.to_string_pretty
    (Lint.to_json (Lint.merge_typed base ~baseline:Baseline.empty vs))

let merged_permutation_qcheck =
  QCheck.Test.make
    ~name:"merged report is stable under typed-finding permutation" ~count:50
    (QCheck.make (QCheck.Gen.shuffle_l fabricated_typed))
    (fun vs -> merged_json vs = merged_json fabricated_typed)

let test_sarif_shape () =
  let root = Lazy.force permutation_root in
  let r = Lint.lint_files ~root ~baseline:Baseline.empty permutation_files in
  match
    Mk_engine.Json.of_string
      (Mk_engine.Json.to_string_pretty (Lint.to_sarif r))
  with
  | Error e -> Alcotest.fail e
  | Ok (Mk_engine.Json.Obj fields) -> (
      check_str "SARIF version" "2.1.0"
        (match List.assoc "version" fields with
        | Mk_engine.Json.String s -> s
        | _ -> "?");
      match List.assoc "runs" fields with
      | Mk_engine.Json.List [ Mk_engine.Json.Obj run ] ->
          check_int "one result per finding"
            (List.length r.findings)
            (match List.assoc "results" run with
            | Mk_engine.Json.List l -> List.length l
            | _ -> -1);
          check_str "driver name" "mklint"
            (match List.assoc "tool" run with
            | Mk_engine.Json.Obj t -> (
                match List.assoc "driver" t with
                | Mk_engine.Json.Obj d -> (
                    match List.assoc "name" d with
                    | Mk_engine.Json.String s -> s
                    | _ -> "?")
                | _ -> "?")
            | _ -> "?")
      | _ -> Alcotest.fail "expected exactly one SARIF run")
  | Ok _ -> Alcotest.fail "expected a JSON object"

(* ------------------------------------------------------------------ *)
(* The live tree lints clean *)

let rec find_root dir =
  if
    Sys.file_exists (Filename.concat dir "dune-project")
    && Sys.file_exists (Filename.concat dir "lib")
  then Some dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_root parent

let test_tree_clean () =
  match find_root (Sys.getcwd ()) with
  | None -> ()  (* not run from a build tree; ci.sh runs the gate anyway *)
  | Some root ->
      let r = Lint.lint_tree ~root ~baseline:Baseline.empty () in
      check_bool "tree scanned" true (List.length r.files > 100);
      Alcotest.(check (list string))
        "no active findings on the shipped tree" []
        (List.map
           (fun (v : Rule.violation) ->
             Printf.sprintf "%s:%d [%s]" v.file v.line (Rule.id_to_string v.rule))
           (Lint.active r))

(* The typed stage needs cmts, so it runs against the *source* root
   (the one that has _build/default), not dune's copied test tree. *)
let rec find_built_root dir =
  if
    Sys.file_exists (Filename.concat dir "dune-project")
    && Sys.file_exists (Filename.concat dir "lib")
    && Sys.file_exists
         (Filename.concat dir (Filename.concat "_build" "default"))
  then Some dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_built_root parent

let test_typed_tree_clean () =
  match find_built_root (Sys.getcwd ()) with
  | None -> ()  (* no built tree in reach; ci.sh runs the full gate *)
  | Some root ->
      let base = Lint.lint_tree ~root ~baseline:Baseline.empty () in
      let typed = Typed_lint.lint_tree ~root in
      let r = Lint.merge_typed base ~baseline:Baseline.empty typed in
      check_bool "typed stage adjudicated the known R8 sites" true
        (List.exists
           (fun ((v : Rule.violation), st) ->
             v.rule = R8 && st = Lint.Suppressed)
           r.findings);
      Alcotest.(check (list string))
        "no active findings on the shipped tree under both stages" []
        (List.map
           (fun (v : Rule.violation) ->
             Printf.sprintf "%s:%d [%s]" v.file v.line (Rule.id_to_string v.rule))
           (Lint.active r))

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mk_lint"
    [
      ( "sorted",
        Alcotest.test_case "bindings" `Quick test_sorted_bindings
        :: qsuite [ sorted_model_qcheck ] );
      ( "rules",
        [
          Alcotest.test_case "R1 wall clock" `Quick test_r1_wall_clock;
          Alcotest.test_case "R2 ambient random" `Quick test_r2_ambient_random;
          Alcotest.test_case "R3 hash iteration" `Quick test_r3_hash_iteration;
          Alcotest.test_case "R4 global mutable" `Quick test_r4_global_mutable;
          Alcotest.test_case "R5 stdout" `Quick test_r5_stdout;
          Alcotest.test_case "parse failure" `Quick test_parse_failure;
          Alcotest.test_case "test/ zone severities" `Quick test_zone_test;
        ] );
      ( "typed",
        [
          Alcotest.test_case "R7 alias resolution" `Quick
            test_r7_alias_resolution;
          Alcotest.test_case "R8 domain escape" `Quick test_r8_domain_escape;
          Alcotest.test_case "R9 mutate during iteration" `Quick
            test_r9_mutate_during_iteration;
        ] );
      ( "workflow",
        [
          Alcotest.test_case "suppression" `Quick test_suppression;
          Alcotest.test_case "baseline" `Quick test_baseline;
          Alcotest.test_case "baseline hash keys" `Quick
            test_baseline_hash_keys;
          Alcotest.test_case "R6 missing mli" `Quick test_r6_missing_mli;
        ] );
      ( "json",
        Alcotest.test_case "shape round-trips" `Quick test_json_shape
        :: Alcotest.test_case "SARIF shape" `Quick test_sarif_shape
        :: qsuite [ json_permutation_qcheck; merged_permutation_qcheck ] );
      ( "regression",
        [
          Alcotest.test_case "live tree lints clean" `Quick test_tree_clean;
          Alcotest.test_case "live tree lints clean (typed)" `Quick
            test_typed_tree_clean;
        ] );
    ]
