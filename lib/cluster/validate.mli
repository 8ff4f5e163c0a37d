(** One-line CLI argument validation.

    Every function returns [Error msg] with a single-line message
    listing the valid choices, so [simos] can exit cleanly instead of
    dumping an exception backtrace at the user.  Kept in the library
    (not [bin/]) so the messages are unit-testable. *)

val max_nodes : int
val max_runs : int
val max_jobs : int
val max_des_shards : int

val nodes : int -> (int, string) result
(** Positive and at most {!max_nodes}. *)

val node_counts : int list -> (int list, string) result
(** Every element validated by {!nodes}; the list must be non-empty. *)

val jobs : int -> (int, string) result
(** [0] (all cores) to {!max_jobs}. *)

val runs : int -> (int, string) result
(** [1] to {!max_runs}. *)

val des_shards : int -> (int, string) result
(** [0] (one shard per recommended domain) to {!max_des_shards}, for
    the [--des-shards] sharded-DES validation tier. *)

val app : string -> (Mk_apps.App.t, string) result
(** Lookup through {!Mk_apps.Registry.find}; the error lists every
    registered application name. *)

val scenario : string -> (Scenario.t, string) result
(** Lookup through {!Scenario.find}; the error lists the valid
    scenario labels. *)

val fault_preset : string -> (string, string) result
(** Validates against {!Mk_fault.Plan.preset_names}. *)

val rates : string -> (float list, string) result
(** Comma-separated non-negative fault rates, e.g. ["0.5,1,2"]. *)
