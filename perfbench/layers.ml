(* The per-layer metrics of the traced run. Every workload reports every
   name — a layer the workload never reaches reads 0 — so traced runs
   of different workloads line up column for column. run.py checks this
   list against BENCHMARK.json's [per_layer] names.

   Layer times are published as shares: a layer's self seconds divided
   by the traced wall times the domains the workload process uses (2
   for census, 1 elsewhere). The per-workload report keeps the seconds. *)

let all =
  [
    (* every workload *)
    ("trace.wall_s", "s");
    ("trace.overhead", "share");  (* run.py fills it in from the timed runs *)
    ("trace.spans", "count");
    ("request.samples", "count");
    ("request.p50_s", "s");
    ("request.tail_s", "s");
    (* Busy_beaver: decode, Symmetry, chunk merge *)
    ("busy_beaver.codes", "count");
    ("busy_beaver.canonical_share", "share");
    ("busy_beaver.canonicalise_share", "share");
    ("busy_beaver.decode_share", "share");
    ("busy_beaver.merge_share", "share");
    (* Eta_search *)
    ("eta_search.calls", "count");
    ("eta_search.inputs", "count");
    ("eta_search.self_share", "share");
    (* Configgraph *)
    ("configgraph.explorations", "count");
    ("configgraph.configs", "count");
    ("configgraph.edges", "count");
    ("configgraph.nodes_per_graph", "nodes");
    ("configgraph.packed.configs_per_s", "1/s");
    ("configgraph.multiset.configs_per_s", "1/s");
    ("configgraph.explore_share", "share");
    (* Scc, Fair_semantics *)
    ("fair.decisions", "count");
    ("fair.sccs", "count");
    ("fair.bottom_sccs", "count");
    ("scc.share", "share");
    ("fair_semantics.verdict_share", "share");
    (* Stable_sets, Backward *)
    ("backward.generations", "count");
    ("backward.candidates", "count");
    ("backward.added", "count");
    ("backward.pruned", "count");
    ("backward.useful_share", "share");
    ("backward.share", "share");
    ("stable_sets.share", "share");
    (* Hilbert_basis, Potential *)
    ("hilbert.candidates", "count");
    ("hilbert.basis_elements", "count");
    ("hilbert.pruned_scalar", "count");
    ("hilbert.pruned_dominated", "count");
    ("hilbert.pruned_duplicate", "count");
    ("hilbert.useful_share", "share");
    ("hilbert.share", "share");
    (* Pool: the census pool on two domains; the ensemble pool runs one
       domain, where a slow trial holds up nothing else *)
    ("pool.bbsearch.utilization", "share");
    ("pool.bbsearch.chunks", "count");
    ("pool.bbsearch.straggler_ratio", "ratio");
    ("pool.bbsearch.task_errors", "count");
    ("pool.ensemble.utilization", "share");
    ("pool.ensemble.chunks", "count");
    ("pool.ensemble.task_errors", "count");
    (* Simulator, Gillespie, Ensemble *)
    ("sim.steps", "count");
    ("sim.effective_null_share", "share");
    ("sim.interactions_per_s", "1/s");
    ("gillespie.steps", "count");
    ("gillespie.propensity_updates", "count");
    ("gillespie.reactions_per_s", "1/s");
    ("ensemble.trials", "count");
    (* Dist (Wire, Lease, Coordinator), Distributed_scan *)
    ("dist.chunks_done", "count");
    ("dist.grants", "count");
    ("dist.frames", "count");
    ("dist.bytes_per_chunk", "bytes");
    ("dist.wire_share", "share");
    ("dist.lease_share", "share");
    ("dist.worker_busy_share", "share");
    ("dist.reassigned", "count");
    ("dist.duplicates", "count");
    ("dist.workers_lost", "count");
    (* Obs.Checkpoint *)
    ("checkpoint.snapshots", "count");
    ("checkpoint.bytes", "bytes");
    ("checkpoint.share", "share");
  ]

type t = (string, float) Hashtbl.t

let create () : t =
  let t = Hashtbl.create 96 in
  List.iter (fun (name, _) -> Hashtbl.replace t name 0.0) all;
  t

let set (t : t) name v =
  if not (Hashtbl.mem t name) then invalid_arg ("Layers.set: unknown metric " ^ name);
  Hashtbl.replace t name v

let seti t name v = set t name (float_of_int v)

(* Counter value from the process-wide registry; 0 when never registered. *)
let counter name = Obs.Metrics.value (Obs.Metrics.counter name)

(* Copy registry counters published under the same name. *)
let copy_counters t names = List.iter (fun n -> seti t n (counter n)) names

let ratio a b = if b = 0.0 then 0.0 else a /. b

let to_json (t : t) =
  Obs.Json.Obj
    (List.map (fun (name, _) -> (name, Obs.Json.Float (Hashtbl.find t name))) all)
