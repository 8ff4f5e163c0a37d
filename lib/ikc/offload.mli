(** The two system-call offloading mechanisms.

    {b Proxy} (IHK/McKernel): the LWK marshals the call into an IKC
    message; the Linux-side proxy process wakes, executes the call
    with full Linux context and replies.  Costs two IKC traversals, a
    proxy wake-up and the Linux-side execution.

    {b Thread migration} (mOS): "System call offloading is …
    implemented by migrating the issuer thread into Linux, executing
    the system call and migrating the thread back" (Section II-C).
    Costs two scheduler hand-offs plus a cache-refill penalty, but no
    message marshalling and no second process.

    Both add microseconds on top of a native call — harmless for the
    rare open/stat, and exactly the penalty LAMMPS exposes when the
    Omni-Path control path issues device-file system calls on every
    communication-heavy timestep (Section IV). *)

type mechanism =
  | Proxy of { wakeup : Mk_engine.Units.time }
  | Migration of {
      handoff : Mk_engine.Units.time;  (** one scheduler hand-off *)
      cache_penalty : Mk_engine.Units.time;
          (** cold caches after returning to the LWK core *)
    }

val default_proxy : mechanism
val default_migration : mechanism

type stats = {
  mutable offloads : int;
  mutable transport_time : Mk_engine.Units.time;
  mutable execution_time : Mk_engine.Units.time;
}

type t

val make : mechanism -> router:Router.t -> t
val stats : t -> stats

val cost :
  t ->
  lwk_core:Mk_hw.Topology.core ->
  sysno:Mk_syscall.Sysno.t ->
  ?payload:int ->
  unit ->
  Mk_engine.Units.time
(** Full latency of offloading [sysno] from [lwk_core]: transport +
    Linux-side execution ({!Mk_syscall.Cost.local}) + return. *)

val overhead :
  t -> lwk_core:Mk_hw.Topology.core -> ?payload:int -> unit -> Mk_engine.Units.time
(** Transport-only part: what the offload adds over a native call. *)
