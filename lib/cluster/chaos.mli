(** Deterministic chaos self-test for the harness itself.

    The simulator models crash-tolerance; this module checks that the
    {e harness} delivers it, by injecting harness faults with a seeded
    {!Mk_engine.Rng} and asserting the supervision/journal contracts
    of [docs/ROBUSTNESS.md]:

    - {b no-lost-cells}: a cell that raises transiently recovers
      through retries, a permanently failing cell is quarantined, and
      every sibling cell's numbers equal the unsupervised baseline;
    - {b kill-and-resume}: a run journaled up to cell [k] then
      "killed" (plus a torn trailing journal line) resumes to output
      byte-identical to an uninterrupted run, replaying exactly [k]
      cells;
    - {b atomic-mid-write-crash}: {!Mk_engine.Atomic_file.write}
      interrupted mid-stage leaves the previous complete file behind;
    - {b journal-round-trip}: append/reopen/replay, duplicate keys
      resolve to the latest entry, record-only mode never replays;
    - {b flight-recorder}: a killed cell leaves a parseable
      [flight-<cell_key>.json] black box behind
      ({!Mk_obs.Recorder.black_box}) that attributes exactly the
      killed cell and carries a non-empty Perfetto trace, and
      surviving cells dump nothing.

    Everything is seeded and simulated — no processes are killed, no
    wall clock is read — so the gate ([simos chaos --smoke], wired
    into [ci.sh]) is deterministic.  This module only builds strings;
    printing is the CLI's job (mklint R5). *)

type check = { name : string; passed : bool; detail : string }
type report = { checks : check list }

val run : ?seed:int -> smoke:bool -> unit -> report
(** Run every check.  [smoke] shrinks the cell grid for the CI gate;
    [seed] drives the injected-failure placement. *)

val passed : report -> bool
val render : report -> string
