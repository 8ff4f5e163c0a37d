(** R8/R9: the typed closure passes.

    {b R8 — domain escape.}  Closures handed to [Pool.parallel_map] /
    [parallel_map_on] / [parallel_run_on] / [submit], the
    [Experiment] fan-out entry points, or [Shard.run] execute on
    worker domains.  The pass flags mutable values captured from the
    enclosing scope — refs, hash tables, buffers, queues, stacks,
    bytes, records with mutable fields, and arrays the closure
    writes — unless the value provably stays domain-local:
    allocated inside the closure, routed through
    [Engine.Scratch], or used under [Mutex.protect] (or a
    [Mutex.lock]-led sequence).  Let-bound task functions are
    resolved one level ([let task = fun … in
    Pool.parallel_map task]); arbitrary call graphs are not chased,
    so the rule is a detector for the provable shape, not an alias
    analysis.

    {b R9 — mutate during iteration.}  A [Hashtbl.iter]/[fold] whose
    closure mutates the very table being walked (the Ltp corner-map
    bug shape).  Tables are identified structurally: same ident or
    same field path rooted at the same ident.

    Both rules report at [Error] severity except in the [Test] zone,
    where they downgrade to [Warning]. *)

val collect :
  file:string ->
  zone:Lint.zone ->
  Resolve.t ->
  Typedtree.structure ->
  Rule.violation list
(** All R8 and R9 findings of one compilation unit. *)
