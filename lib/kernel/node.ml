open Mk_engine

type rank_state = {
  rank : int;
  process : Mk_proc.Process.t;
  task : Mk_proc.Task.t;
  core : Mk_hw.Topology.core;
  home : Mk_hw.Numa.id;
  rng : Rng.t;
  mutable last_fd : int option;  (** most recently opened descriptor *)
}

type t = {
  os : Os.t;
  plan : Mk_sched.Binding.plan;
  states : rank_state array;
  pids : Mk_proc.Ids.t;
  mutable failures : int;
}

let boot ~os ~ranks ~threads_per_rank ~seed =
  let topo = os.Os.topo in
  let plan =
    Mk_sched.Binding.block ~topo
      ~os_cores:(List.length os.Os.os_cores)
      ~ranks ~threads_per_rank
  in
  let pids = Mk_proc.Ids.create ~first:1000 () in
  let root_rng = Rng.create seed in
  let states =
    Array.init ranks (fun rank ->
        let home = Mk_sched.Binding.home_domain ~topo plan ~rank in
        let address_space = Os.address_space os ~ranks ~home in
        let pid = Mk_proc.Ids.next pids in
        let name = Printf.sprintf "rank%d" rank in
        let process = Mk_proc.Process.make ~pid ~name ~address_space in
        (* McKernel pairs every LWK process with a Linux-side proxy
           that owns the descriptor table (Section II-B). *)
        (match os.Os.kind with
        | Os.Mckernel_kind ->
            ignore (Mk_proc.Process.attach_proxy process ~proxy_pid:(Mk_proc.Ids.next pids))
        | Os.Linux | Os.Mos_kind -> ());
        let affinity = plan.Mk_sched.Binding.rank_cpus.(rank) in
        let task = Mk_proc.Task.make ~tid:pid ~pid ~name ~affinity in
        task.Mk_proc.Task.home <-
          (if Os.is_lwk os then Mk_proc.Task.Lwk else Mk_proc.Task.Linux_side);
        Mk_proc.Process.add_task process task;
        let core =
          match affinity with
          | cpu :: _ -> Mk_hw.Topology.core_of_cpu topo cpu
          | [] -> 0
        in
        { rank; process; task; core; home; rng = Rng.split root_rng rank;
          last_fd = None })
  in
  { os; plan; states; pids; failures = 0 }

let os t = t.os
let ranks t = Array.length t.states
let rank_state t rank = t.states.(rank)

let address_space t ~rank =
  t.states.(rank).process.Mk_proc.Process.address_space

let failures t = t.failures

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)

let run_compute t st dur =
  let inflated = Mk_noise.Injector.inflate t.os.Os.app_noise st.rng ~dur in
  Mk_proc.Task.charge_user st.task dur;
  Mk_proc.Task.charge_noise st.task (inflated - dur);
  inflated

let run_stream t st bytes =
  let asp = st.process.Mk_proc.Process.address_space in
  let placement =
    Mk_hw.Bandwidth.mixed
      ~mcdram_fraction:(Mk_mem.Address_space.mcdram_fraction asp)
  in
  let base = Mk_hw.Bandwidth.stream_time ~bytes placement ~ranks:(ranks t) in
  let with_tlb =
    int_of_float
      (float_of_int base *. Mk_mem.Address_space.tlb_factor asp)
  in
  run_compute t st with_tlb

(* File I/O: the syscall itself plus data movement.  Page-cache reads
   stream at memory-ish speed; an offloaded call additionally ships
   the buffer through the IKC channel (the payload parameter). *)
let page_cache_bandwidth = 3.0 (* bytes/ns *)

let run_file_op t st op =
  let fds = Mk_proc.Process.fds st.process in
  let priced ?payload sysno =
    match Os.syscall_time t.os ?payload ~core:st.core sysno with
    | Ok cost -> cost
    | Error `Enosys ->
        t.failures <- t.failures + 1;
        t.os.Os.syscall_entry
  in
  match op with
  | Workload.Open_file path ->
      let fd = Mk_proc.Fd_table.open_file fds ~path in
      st.last_fd <- Some fd;
      priced Mk_syscall.Sysno.Open
  | Workload.Close_file -> (
      match st.last_fd with
      | None ->
          t.failures <- t.failures + 1;
          t.os.Os.syscall_entry
      | Some fd ->
          (match Mk_proc.Fd_table.close fds fd with
          | Ok () -> ()
          | Error `Ebadf -> t.failures <- t.failures + 1);
          st.last_fd <- None;
          priced Mk_syscall.Sysno.Close)
  | Workload.Read_bytes bytes | Workload.Write_bytes bytes -> (
      let sysno =
        match op with
        | Workload.Read_bytes _ -> Mk_syscall.Sysno.Read
        | _ -> Mk_syscall.Sysno.Write
      in
      match st.last_fd with
      | None ->
          t.failures <- t.failures + 1;
          t.os.Os.syscall_entry
      | Some fd ->
          (match Mk_proc.Fd_table.advance fds fd ~bytes with
          | Ok () -> ()
          | Error `Ebadf -> t.failures <- t.failures + 1);
          priced ~payload:bytes sysno
          + Units.transfer_time ~bytes ~bw:page_cache_bandwidth)
  | Workload.Compute _ | Workload.Stream _ | Workload.Syscall _
  | Workload.Mmap _ | Workload.Brk _ | Workload.Touch_heap | Workload.Yield ->
      invalid_arg "Node.run_file_op: not a file operation"

let run_syscall t st sysno =
  match Os.syscall_time t.os ~core:st.core sysno with
  | Ok cost ->
      (match t.os.Os.disposition sysno with
      | Mk_syscall.Disposition.Offload ->
          st.task.Mk_proc.Task.acct.Mk_proc.Task.syscalls_offloaded <-
            st.task.Mk_proc.Task.acct.Mk_proc.Task.syscalls_offloaded + 1;
          (match st.process.Mk_proc.Process.proxy with
          | Some proxy ->
              proxy.Mk_proc.Process.offloads_served <-
                proxy.Mk_proc.Process.offloads_served + 1
          | None -> ())
      | _ ->
          st.task.Mk_proc.Task.acct.Mk_proc.Task.syscalls_local <-
            st.task.Mk_proc.Task.acct.Mk_proc.Task.syscalls_local + 1);
      Mk_proc.Task.charge_kernel st.task cost;
      cost
  | Error `Enosys ->
      t.failures <- t.failures + 1;
      t.os.Os.syscall_entry

let run_op t st op =
  let asp = st.process.Mk_proc.Process.address_space in
  match op with
  | Workload.Compute dur -> run_compute t st dur
  | Workload.Stream bytes -> run_stream t st bytes
  | Workload.Syscall sysno -> run_syscall t st sysno
  | Workload.Yield -> run_syscall t st Mk_syscall.Sysno.Sched_yield
  | Workload.Brk delta -> (
      match Mk_mem.Address_space.brk asp ~delta with
      | Ok (_, cost) ->
          Mk_proc.Task.charge_kernel st.task (t.os.Os.syscall_entry + cost);
          t.os.Os.syscall_entry + cost
      | Error `Enomem ->
          t.failures <- t.failures + 1;
          t.os.Os.syscall_entry)
  | Workload.Mmap { bytes; touch } -> (
      match Mk_mem.Address_space.mmap asp ~bytes ~backing:Mk_mem.Vma.Anonymous () with
      | Ok (addr, cost) ->
          let touch_cost =
            if touch then
              Mk_mem.Address_space.touch asp ~addr ~bytes ~concurrency:1
            else 0
          in
          Mk_proc.Task.charge_kernel st.task (t.os.Os.syscall_entry + cost + touch_cost);
          t.os.Os.syscall_entry + cost + touch_cost
      | Error `Enomem ->
          t.failures <- t.failures + 1;
          t.os.Os.syscall_entry)
  | Workload.Touch_heap ->
      let cost = Mk_mem.Address_space.touch_heap asp ~concurrency:1 in
      Mk_proc.Task.charge_kernel st.task cost;
      cost
  | Workload.Open_file _ | Workload.Read_bytes _ | Workload.Write_bytes _
  | Workload.Close_file ->
      let cost = run_file_op t st op in
      Mk_proc.Task.charge_kernel st.task cost;
      (match (op, t.os.Os.kind) with
      | (Workload.Open_file _ | Workload.Read_bytes _ | Workload.Write_bytes _
        | Workload.Close_file), Os.Mckernel_kind ->
          st.task.Mk_proc.Task.acct.Mk_proc.Task.syscalls_offloaded <-
            st.task.Mk_proc.Task.acct.Mk_proc.Task.syscalls_offloaded + 1
      | _ ->
          st.task.Mk_proc.Task.acct.Mk_proc.Task.syscalls_local <-
            st.task.Mk_proc.Task.acct.Mk_proc.Task.syscalls_local + 1);
      cost

let run_ops t ~rank ops =
  let st = t.states.(rank) in
  List.fold_left (fun acc op -> acc + run_op t st op) 0 ops

let run_all t programs =
  Array.init (ranks t) (fun rank -> run_ops t ~rank (programs rank))

(* ------------------------------------------------------------------ *)
(* Oversubscribed core: DES-driven time sharing                        *)

let run_shared_core t ~tasks ~ops_per_task =
  if tasks <= 0 then invalid_arg "Node.run_shared_core: tasks must be positive";
  let st = t.states.(0) in
  (* Pre-compute each program's total service demand once; every
     task runs the same program but keeps its own remaining budget. *)
  let demand = List.fold_left (fun acc op -> acc + run_op t st op) 0 ops_per_task in
  let remaining = Array.make tasks demand in
  let module Run (S : Mk_sched.Sched_intf.S) = struct
    let go sched =
      let task_of =
        Array.init tasks (fun i ->
            let task =
              Mk_proc.Task.make ~tid:(9000 + i) ~pid:(9000 + i)
                ~name:(Printf.sprintf "ts%d" i) ~affinity:[ 0 ]
            in
            S.enqueue sched task;
            task)
      in
      (* One task runs at a time; the event ending its slice is its
         index, and [ran.(i)] the slice it was given. *)
      let ran = Array.make tasks 0 in
      let dispatch sim =
        match S.pick sched with
        | None -> ()
        | Some task ->
            let i = task.Mk_proc.Task.tid - 9000 in
            let slice =
              match S.timeslice sched ~runnable:(S.queued sched + 1) with
              | None -> remaining.(i)
              | Some q -> Int.min q remaining.(i)
            in
            remaining.(i) <- remaining.(i) - slice;
            ran.(i) <- slice;
            task.Mk_proc.Task.acct.Mk_proc.Task.context_switches <-
              task.Mk_proc.Task.acct.Mk_proc.Task.context_switches + 1;
            Mk_obs.Hook.count ~subsystem:"sched" ~name:"context_switches" 1;
            Sim.schedule_after sim ~delay:(slice + S.context_switch_cost) i
      in
      let sim =
        Sim.create (fun sim i ->
            if remaining.(i) > 0 then begin
              Mk_obs.Hook.count ~subsystem:"sched" ~name:"preemptions" 1;
              S.requeue sched task_of.(i) ~ran:ran.(i)
            end;
            dispatch sim)
      in
      dispatch sim;
      Sim.run sim;
      Sim.now sim
  end in
  match t.os.Os.sched_kind with
  | Os.Cfs_sched ->
      let module R = Run (Mk_sched.Cfs) in
      R.go (Mk_sched.Cfs.create ())
  | Os.Lwk_cooperative ->
      let module R = Run (Mk_sched.Lwk_rr) in
      R.go (Mk_sched.Lwk_rr.create ())
  | Os.Lwk_time_sharing quantum ->
      let module R = Run (Mk_sched.Lwk_rr) in
      R.go (Mk_sched.Lwk_rr.create_time_sharing ~quantum)

(* ------------------------------------------------------------------ *)
(* MPI shared-memory window                                            *)

let shm_window t ~bytes_per_rank =
  Array.map
    (fun st ->
      let asp = st.process.Mk_proc.Process.address_space in
      match
        Mk_mem.Address_space.mmap asp ~bytes:bytes_per_rank
          ~backing:(Mk_mem.Vma.Shared st.rank) ()
      with
      | Error `Enomem ->
          t.failures <- t.failures + 1;
          0
      | Ok (addr, cost) ->
          if t.os.Os.options.Os.mpol_shm_premap then
            (* Populate at window creation: no faults, no contention. *)
            cost + Mk_mem.Address_space.premap asp ~addr ~bytes:bytes_per_rank
          else cost)
    t.states
