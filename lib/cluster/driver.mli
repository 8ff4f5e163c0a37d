(** The cluster-scale experiment driver (Tier 2).

    One run simulates a job of [nodes] nodes under one OS model.  A
    single representative node is booted for real — its address
    spaces, physical allocator, heap traces and shared-memory windows
    execute through the Tier-1 machinery — because under the paper's
    configurations every node is identically laid out.  Across nodes
    only the *noise* differs, so the cluster is reduced to an array
    of per-node clocks advanced iteration by iteration:

    + compute phases advance every clock by the representative node's
      cost plus a per-node sampled straggler term (the max over that
      node's ranks of the OS noise suffered in the window);
    + collectives and halos combine clocks through tree/neighbour
      max-plus operations with fabric costs on the edges
      ({!Mk_mpi.Collective}, {!Mk_mpi.P2p});
    + NIC control system calls are priced through the OS: local and
      parallel on Linux, offloaded and funnelled through the few
      Linux-side cores on the LWKs (the LAMMPS mechanism);
    + heap-trace operations replay on the representative node, so
      Linux re-faults every iteration while the LWKs hit their brk
      fast path (the Lulesh mechanism).

    The first simulated iteration is kept separate (cold page faults,
    shared-memory population); the remaining iterations are averaged
    and extrapolated to the application's real iteration count. *)

type result = {
  nodes : int;
  total_time : Mk_engine.Units.time;
  solve_time : Mk_engine.Units.time;
      (** the timed region: iterations only, as the benchmarks report *)
  setup_time : Mk_engine.Units.time;
  first_iteration : Mk_engine.Units.time;
  steady_iteration : Mk_engine.Units.time;  (** average of the rest *)
  fom : float;
  mcdram_fraction : float;  (** across the representative node's ranks *)
  faults : int;  (** demand faults on the representative node *)
  offloads_per_iteration : int;
  failures : int;
  fault_events : int;  (** injected fault events applied (0 when off) *)
  dead_nodes : int;  (** nodes lost to injected crashes *)
  recoveries : int;
      (** recovery episodes priced: crash detections + proxy respawns *)
}

val run :
  ?eager_threshold:int ->
  ?faults:Mk_fault.Plan.t ->
  ?obs:Mk_obs.Recorder.t ->
  scenario:Scenario.t ->
  app:Mk_apps.App.t ->
  nodes:int ->
  seed:int ->
  unit ->
  result
(** [eager_threshold] overrides the NIC's eager/rendezvous switch —
    the knob for the LAMMPS-sensitivity ablation.

    [faults] injects a deterministic fault plan
    ({!Mk_fault.Plan}); containment semantics per kernel are spelled
    out in docs/FAULTS.md.  Omitting it — or passing
    {!Mk_fault.Plan.empty} — runs the exact healthy arithmetic: the
    fault layer is zero-cost when off.  Dead nodes' clocks freeze;
    collectives route around them ({!Mk_mpi.Resilient}); survivors
    pay detection, retry and respawn costs under the kernel's
    {!Mk_fault.Retry.policy}.

    [obs] installs a {!Mk_obs.Recorder} for the run's duration: every
    instrumented layer counts into it (via {!Mk_obs.Hook}) and, when
    the recorder traces, the driver emits setup/iteration/sync spans
    and fault instants on the simulated clock, once each.
    Omitting it installs nothing and emits no spans: the layers keep
    whatever recorder {!Mk_obs.Hook} already holds, by default the
    zero-cost Null sink. *)

val pp_result : Format.formatter -> result -> unit
