open Mk_engine

type mechanism =
  | Proxy of { wakeup : Units.time }
  | Migration of { handoff : Units.time; cache_penalty : Units.time }

(* A blocked proxy thread needs an IPI plus a wake-up through the
   Linux scheduler: a couple of microseconds on KNL. *)
let default_proxy = Proxy { wakeup = 2_200 }

(* mOS moves the caller itself: two run-queue hand-offs and a small
   cache refill when it comes back. *)
let default_migration = Migration { handoff = 1_100; cache_penalty = 600 }

type stats = {
  mutable offloads : int;
  mutable transport_time : Units.time;
  mutable execution_time : Units.time;
}

type t = { mechanism : mechanism; router : Router.t; stats : stats }

let make mechanism ~router =
  { mechanism; router; stats = { offloads = 0; transport_time = 0; execution_time = 0 } }

let stats t = t.stats

let transport t ~lwk_core ~payload =
  match t.mechanism with
  | Proxy { wakeup } ->
      (* Only the request descriptor crosses the channel: "the proxy
         process provides execution context on behalf of the
         application" (Section II-B) and maps the LWK memory
         directly, so buffers are accessed in place.  Large buffers
         still pay a remote-cache effect on the Linux side. *)
      let ch = Router.channel t.router ~lwk_core in
      let descriptor = min payload 256 in
      let cache_effect = payload / 50 in
      Channel.send ch ~payload:descriptor + wakeup
      + Channel.send ch ~payload:64 + cache_effect
  | Migration { handoff; cache_penalty } ->
      (* No marshalling at all: the thread itself moves and returns,
         operating on its own memory from the Linux core. *)
      handoff + handoff + cache_penalty

let overhead t ~lwk_core ?(payload = 128) () = transport t ~lwk_core ~payload

let cost t ~lwk_core ~sysno ?(payload = 128) () =
  let tr = transport t ~lwk_core ~payload in
  let exec = Mk_syscall.Cost.local sysno in
  t.stats.offloads <- t.stats.offloads + 1;
  t.stats.transport_time <- t.stats.transport_time + tr;
  t.stats.execution_time <- t.stats.execution_time + exec;
  (* Proxy round-trips vs. thread migrations: the two offload
     mechanisms Section II-B distinguishes, counted apart so a
     McKernel-vs-mOS comparison can attribute control-path cost. *)
  (match t.mechanism with
  | Proxy _ -> Mk_obs.Hook.count ~subsystem:"ikc" ~name:"proxy_roundtrips" 1
  | Migration _ ->
      Mk_obs.Hook.count ~subsystem:"ikc" ~name:"thread_migrations" 1);
  Mk_obs.Hook.count ~subsystem:"ikc" ~name:"transport_ns" tr;
  tr + exec
