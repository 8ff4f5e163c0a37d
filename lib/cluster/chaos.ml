type check = { name : string; passed : bool; detail : string }
type report = { checks : check list }

let passed r = List.for_all (fun c -> c.passed) r.checks

let render r =
  let b = Buffer.create 256 in
  Printf.bprintf b "chaos self-test: %d check(s), %s\n" (List.length r.checks)
    (if passed r then "all passed" else "FAILURES");
  List.iter
    (fun c ->
      Printf.bprintf b "  [%s] %s: %s\n"
        (if c.passed then "ok" else "FAIL")
        c.name c.detail)
    r.checks;
  Buffer.contents b

let app () =
  match Mk_apps.Registry.find "HPCG" with
  | Some a -> a
  | None -> failwith "Chaos: HPCG not registered"

let check name (passed, detail) = { name; passed; detail }

let with_temp_file prefix suffix f =
  let path = Filename.temp_file prefix suffix in
  Fun.protect
    ~finally:(fun () ->
      (* Remove the file and any staging/torn residue next to it. *)
      let dir = Filename.dirname path and base = Filename.basename path in
      Array.iter
        (fun entry ->
          if String.length entry >= String.length base
             && String.sub entry 0 (String.length base) = base
          then try Sys.remove (Filename.concat dir entry) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]))
    (fun () -> f path)

let with_temp_dir prefix f =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat path e) with Sys_error _ -> ())
        (try Sys.readdir path with Sys_error _ -> [||]);
      try Sys.rmdir path with Sys_error _ -> ())
    (fun () -> f path)

(* 1. Injected failures: one transient cell (fails twice, then
   succeeds), one permanently failing cell.  The permanent cell must
   be quarantined, every other cell must complete with numbers equal
   to the unsupervised baseline. *)
let no_lost_cells ~rng ~counts ~runs ~seed =
  let cells =
    Experiment.compare_cells ~scenarios:Scenario.trio ~app:(app ())
      ~node_counts:counts ~runs ~seed ()
  in
  let n = List.length cells in
  let transient = Mk_engine.Rng.int rng n in
  let permanent = (transient + 1 + Mk_engine.Rng.int rng (n - 1)) mod n in
  let chaos ~cell ~attempt =
    if cell = transient && attempt <= 2 then
      raise (Supervise.Transient "chaos: injected transient failure");
    if cell = permanent then failwith "chaos: injected permanent failure"
  in
  let baseline = Experiment.points cells in
  let s = Experiment.supervised_points ~chaos cells in
  let mismatches = ref 0 in
  let quarantined_right = ref false in
  List.iteri
    (fun i ((_, o), b) ->
      match o with
      | Experiment.Completed p -> if p <> b then incr mismatches
      | Experiment.Quarantined { attempts; _ } ->
          if i = permanent && attempts = 1 then quarantined_right := true)
    (List.combine s.Experiment.outcomes baseline);
  let ok =
    !quarantined_right
    && s.Experiment.quarantined = 1
    && s.Experiment.retries = 2
    && !mismatches = 0
    && List.length s.Experiment.outcomes = n
  in
  ( ok,
    Printf.sprintf
      "%d cells, transient #%d recovered after %d retrie(s), permanent #%d \
       quarantined (%d), %d sibling mismatch(es) vs unsupervised baseline"
      n transient s.Experiment.retries permanent s.Experiment.quarantined
      !mismatches )

(* 2. Kill-and-resume: journal the first [k] cells (the "killed" run),
   corrupt the journal tail the way a killed writer would, resume over
   the full cell list, and require the rendered report byte-identical
   to an uninterrupted run.  Then resume a SECOND time: the first
   resume appended fresh records after the torn tail, and if open_
   failed to repair the tail first, the fused line would make this
   second resume silently drop them and recompute. *)
let kill_and_resume ~counts ~runs ~seed =
  let a = app () in
  let cells =
    Experiment.compare_cells ~scenarios:Scenario.trio ~app:a
      ~node_counts:counts ~runs ~seed ()
  in
  let n = List.length cells in
  let k = n / 2 in
  let doc outcomes =
    Mk_engine.Json.to_string_pretty
      (Report.json ~app:a (Experiment.series_of_supervised outcomes))
  in
  let fresh = Experiment.supervised_points cells in
  let expected = doc fresh.Experiment.outcomes in
  with_temp_file "mkchaos" ".journal" @@ fun path ->
  let first_k = List.filteri (fun i _ -> i < k) cells in
  let j1 = Mk_engine.Journal.open_ ~path () in
  let killed = Experiment.supervised_points ~journal:j1 first_k in
  Mk_engine.Journal.close j1;
  (* A real kill can leave a torn trailing line behind. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "{\"key\":\"torn-by-chaos";
  close_out oc;
  let j2 = Mk_engine.Journal.open_ ~path () in
  let resumed = Experiment.supervised_points ~journal:j2 cells in
  let torn = Mk_engine.Journal.torn j2 in
  Mk_engine.Journal.close j2;
  let got = doc resumed.Experiment.outcomes in
  let j3 = Mk_engine.Journal.open_ ~path () in
  let again = Experiment.supervised_points ~journal:j3 cells in
  let torn3 = Mk_engine.Journal.torn j3 in
  Mk_engine.Journal.close j3;
  let got_again = doc again.Experiment.outcomes in
  let ok =
    killed.Experiment.computed = k
    && resumed.Experiment.replayed = k
    && resumed.Experiment.computed = n - k
    && torn = 1
    && String.equal got expected
    && again.Experiment.replayed = n
    && again.Experiment.computed = 0
    && torn3 = 0
    && String.equal got_again expected
  in
  ( ok,
    Printf.sprintf
      "killed after %d/%d cells; resume replayed %d, recomputed %d, %d torn \
       line(s) ignored, output %s; second resume replayed %d, recomputed %d \
       (torn tail repaired: %b), output %s"
      k n resumed.Experiment.replayed resumed.Experiment.computed torn
      (if String.equal got expected then "byte-identical" else "DIFFERS")
      again.Experiment.replayed again.Experiment.computed (torn3 = 0)
      (if String.equal got_again expected then "byte-identical" else "DIFFERS") )

(* 3. Mid-write crash: a write killed between staging and rename must
   leave the previous complete file in place, and a rerun must land
   the new contents. *)
let atomic_crash () =
  with_temp_file "mkchaos" ".json" @@ fun path ->
  let old_doc = "{\"generation\": 1}" and new_doc = "{\"generation\": 2}" in
  Mk_engine.Atomic_file.write path old_doc;
  let crashed =
    match
      Mk_engine.Atomic_file.with_crash_after_bytes 5 (fun () ->
          Mk_engine.Atomic_file.write path new_doc)
    with
    | () -> false
    | exception Mk_engine.Atomic_file.Crashed -> true
  in
  let after_crash = Mk_engine.Atomic_file.read path in
  let parses =
    match Mk_engine.Json.of_string after_crash with
    | Ok _ -> true
    | Error _ -> false
  in
  Mk_engine.Atomic_file.write path new_doc;
  let after_retry = Mk_engine.Atomic_file.read path in
  let ok =
    crashed
    && String.equal after_crash old_doc
    && parses
    && String.equal after_retry new_doc
  in
  ( ok,
    Printf.sprintf
      "crash injected: %b; old contents intact: %b (parseable: %b); retry \
       landed new contents: %b"
      crashed
      (String.equal after_crash old_doc)
      parses
      (String.equal after_retry new_doc) )

(* 4. Journal round trip: append, reopen, replay; duplicate keys
   resolve to the latest entry; record-only mode never replays. *)
let journal_roundtrip () =
  with_temp_file "mkchaos" ".journal" @@ fun path ->
  let v n = Mk_engine.Json.Obj [ ("value", Mk_engine.Json.Int n) ] in
  let j = Mk_engine.Journal.open_ ~path () in
  Mk_engine.Journal.record j ~key:"k1" ~label:"cell one" (v 1);
  Mk_engine.Journal.record j ~key:"k2" ~label:"cell two" (v 2);
  Mk_engine.Journal.record j ~key:"k1" ~label:"cell one again" (v 3);
  Mk_engine.Journal.close j;
  let j2 = Mk_engine.Journal.open_ ~path () in
  let k1 = Mk_engine.Journal.find j2 ~key:"k1" in
  let k2 = Mk_engine.Journal.find j2 ~key:"k2" in
  let loaded = Mk_engine.Journal.loaded j2 in
  let torn = Mk_engine.Journal.torn j2 in
  Mk_engine.Journal.close j2;
  let j3 = Mk_engine.Journal.open_ ~replay:false ~path () in
  let norecall = Mk_engine.Journal.find j3 ~key:"k1" in
  Mk_engine.Journal.close j3;
  let ok =
    k1 = Some (v 3) && k2 = Some (v 2) && loaded = 3 && torn = 0
    && norecall = None
  in
  ( ok,
    Printf.sprintf
      "3 entries loaded: %d, torn: %d, duplicate resolved to latest: %b, \
       record-only mode replays nothing: %b"
      loaded torn (k1 = Some (v 3)) (norecall = None) )

(* 5. The flight recorder: kill one cell and require its black box on
   disk — parseable, attributing exactly the killed cell (key and
   label), carrying a non-empty Perfetto trace — and nothing dumped
   for the cells that survived. *)
let flight_recorder ~rng ~counts ~runs ~seed =
  let cells =
    Experiment.compare_cells ~scenarios:Scenario.trio ~app:(app ())
      ~node_counts:counts ~runs ~seed ()
  in
  let n = List.length cells in
  let victim = Mk_engine.Rng.int rng n in
  let chaos ~cell ~attempt:_ =
    if cell = victim then failwith "chaos: killed for the flight recorder"
  in
  with_temp_dir "mkflight" @@ fun dir ->
  let s = Experiment.supervised_points ~chaos ~flight_dir:dir cells in
  let victim_cell = List.nth cells victim in
  let key = Experiment.cell_key victim_cell in
  let path = Experiment.flight_path ~dir ~key in
  let dumps =
    Array.fold_left
      (fun acc e ->
        if String.length e >= 7 && String.sub e 0 7 = "flight-" then acc + 1
        else acc)
      0
      (Sys.readdir dir)
  in
  let parsed =
    if Sys.file_exists path then
      try Some (Mk_engine.Atomic_file.read_json path)
      with Mk_engine.Atomic_file.Corrupt _ -> None
    else None
  in
  let field name = function
    | Mk_engine.Json.Obj fs -> List.assoc_opt name fs
    | _ -> None
  in
  let ok_schema, ok_key, ok_label, ok_reason, recorded, trace_events =
    match parsed with
    | None -> (false, false, false, false, 0, 0)
    | Some doc ->
        let str name =
          match field name doc with
          | Some (Mk_engine.Json.String s) -> Some s
          | _ -> None
        in
        ( str "schema" = Some "multikernel-flight/1",
          str "cell_key" = Some key,
          str "label" = Some (Experiment.cell_label victim_cell),
          Option.is_some (str "reason"),
          (match field "recorded" doc with
          | Some (Mk_engine.Json.Int i) -> i
          | _ -> 0),
          match field "trace" doc with
          | Some (Mk_engine.Json.Obj tf) -> (
              match List.assoc_opt "traceEvents" tf with
              | Some (Mk_engine.Json.List l) -> List.length l
              | _ -> 0)
          | _ -> 0 )
  in
  let ok =
    s.Experiment.quarantined = 1
    && dumps = 1 && ok_schema && ok_key && ok_label && ok_reason
    && recorded > 0 && trace_events > 0
  in
  ( ok,
    Printf.sprintf
      "cell #%d/%d killed; %d dump(s); parsed: %b; attributes killed cell \
       (key: %b, label: %b, reason: %b); %d event(s) recorded, %d trace \
       event(s) exported"
      victim n dumps (parsed <> None) ok_key ok_label ok_reason recorded
      trace_events )

let run ?(seed = 42) ~smoke () =
  let counts = if smoke then [ 2; 4 ] else [ 2; 4; 8 ] in
  let runs = 2 in
  let rng = Mk_engine.Rng.create seed in
  {
    checks =
      [
        check "no-lost-cells" (no_lost_cells ~rng ~counts ~runs ~seed);
        check "kill-and-resume" (kill_and_resume ~counts ~runs ~seed);
        check "atomic-mid-write-crash" (atomic_crash ());
        check "journal-round-trip" (journal_roundtrip ());
        check "flight-recorder" (flight_recorder ~rng ~counts ~runs ~seed);
      ];
  }
