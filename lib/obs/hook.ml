(* The ambient hook slot.  Layer code (mem, ikc, noise, mpi, sched)
   cannot thread a recorder through every call without distorting the
   very APIs the paper models, so the active recorder — if any — is
   held in domain-local storage.  DLS, not a global ref (mklint R4):
   each domain in a Pool fan-out sees only its own slot, so a run's
   samples can never leak into a sibling run's recorder, and the
   sequential/-j N byte-identity argument stays trivial.

   The Null sink is [None], the initial state.  A disabled hook is a
   DLS read plus a match — no allocation, no branch into the layer's
   arithmetic — which is what lets the hook sites live inside
   demand-fault and offload hot paths. *)

let slot : Recorder.t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let active () = Domain.DLS.get slot

let with_recorder r f =
  let prev = Domain.DLS.get slot in
  Domain.DLS.set slot (Some r);
  Fun.protect ~finally:(fun () -> Domain.DLS.set slot prev) f

let count ~subsystem ~name n =
  match Domain.DLS.get slot with
  | None -> ()
  | Some r -> Recorder.count r ~subsystem ~name n

let count_node ~node ~subsystem ~name n =
  match Domain.DLS.get slot with
  | None -> ()
  | Some r -> Recorder.count_node r ~node ~subsystem ~name n

let observe ~subsystem ~name v =
  match Domain.DLS.get slot with
  | None -> ()
  | Some r -> Recorder.observe r ~subsystem ~name v

let gauge ~subsystem ~name v =
  match Domain.DLS.get slot with
  | None -> ()
  | Some r -> Recorder.gauge r ~subsystem ~name v
