type t = {
  protocol : Population.t;
  unstable0 : Upset.t;
  unstable1 : Upset.t;
  stable0 : Downset.t;
  stable1 : Downset.t;
}

(* Configurations populating at least one state of output [≠ b]: the
   up-closure of the corresponding singletons. *)
let bad_upset p b =
  let d = Population.num_states p in
  let singles =
    List.filter_map
      (fun q -> if p.Population.output.(q) <> b then Some (Mset.singleton d q) else None)
      (List.init d Fun.id)
  in
  Upset.of_elements d singles

let m_analyses = Obs.Metrics.counter "stable_sets.analyses"
let m_memo_hits = Obs.Metrics.counter "stable_sets.memo_hits"
let m_memo_misses = Obs.Metrics.counter "stable_sets.memo_misses"
let g_basis0 = Obs.Metrics.gauge "stable_sets.basis0_size"
let g_basis1 = Obs.Metrics.gauge "stable_sets.basis1_size"
let g_norm0 = Obs.Metrics.gauge "stable_sets.norm0"
let g_norm1 = Obs.Metrics.gauge "stable_sets.norm1"

let analyse ?jobs p =
  Obs.Trace.with_span "stable_sets.analyse" ~cat:"coverability"
    ~args:[ ("protocol", p.Population.name) ]
    (fun () ->
      let d = Population.num_states p in
      let unstable b =
        Obs.Trace.with_span
          (if b then "stable_sets.unstable1" else "stable_sets.unstable0")
          ~cat:"coverability"
          (fun () -> Backward.pre_star ?jobs p (bad_upset p b))
      in
      let unstable0 = unstable false and unstable1 = unstable true in
      let stable b u =
        Obs.Trace.with_span
          (if b then "stable_sets.stable1" else "stable_sets.stable0")
          ~cat:"coverability"
          (fun () -> Downset.of_max_elements d (Upset.complement u))
      in
      let stable0 = stable false unstable0 and stable1 = stable true unstable1 in
      if Obs.Metrics.enabled () then begin
        Obs.Metrics.incr m_analyses;
        Obs.Metrics.set g_basis0 (float_of_int (Downset.size stable0));
        Obs.Metrics.set g_basis1 (float_of_int (Downset.size stable1));
        Obs.Metrics.set g_norm0 (float_of_int (Downset.norm stable0));
        Obs.Metrics.set g_norm1 (float_of_int (Downset.norm stable1))
      end;
      { protocol = p; unstable0; unstable1; stable0; stable1 })

(* -- memoization across eta sweeps ------------------------------------- *)

(* Structural fingerprint of everything [analyse] depends on — the
   protocol name deliberately excluded, so structurally equal protocols
   built under different names share one analysis. Hashed through the
   checkpoint layer's config-fingerprint scheme. *)
let fingerprint p =
  let ints xs = Obs.Json.List (List.map (fun i -> Obs.Json.Int i) xs) in
  let json =
    Obs.Json.Obj
      [
        ("states", Obs.Json.Int (Population.num_states p));
        ( "transitions",
          Obs.Json.List
            (Array.to_list
               (Array.map
                  (fun { Population.pre = a, b; post = a', b' } ->
                    ints [ a; b; a'; b' ])
                  p.Population.transitions)) );
        ( "leaders",
          ints
            (List.init (Mset.dim p.Population.leaders)
               (Mset.get p.Population.leaders)) );
        ("input_map", ints (Array.to_list p.Population.input_map));
        ( "output",
          ints (Array.to_list (Array.map Bool.to_int p.Population.output)) );
      ]
  in
  Obs.Checkpoint.hash_config json

(* Bounded protocol-hash-keyed cache. The lock makes concurrent callers
   safe (the busy-beaver pool may analyse from several domains); a full
   cache is cleared wholesale — the sweep workloads this serves analyse
   one protocol at a time, so any eviction policy only has to bound
   memory, not maximise hits. *)
let memo_cap = 128
let memo : (string, t) Hashtbl.t = Hashtbl.create 32
let memo_lock = Mutex.create ()

let analyse_memo ?jobs p =
  let key = fingerprint p in
  let cached =
    Mutex.lock memo_lock;
    let r = Hashtbl.find_opt memo key in
    Mutex.unlock memo_lock;
    r
  in
  match cached with
  | Some a ->
    if Obs.Metrics.enabled () then Obs.Metrics.incr m_memo_hits;
    a
  | None ->
    if Obs.Metrics.enabled () then Obs.Metrics.incr m_memo_misses;
    let a = analyse ?jobs p in
    Mutex.lock memo_lock;
    if Hashtbl.length memo >= memo_cap then Hashtbl.reset memo;
    if not (Hashtbl.mem memo key) then Hashtbl.add memo key a;
    Mutex.unlock memo_lock;
    a

let memo_clear () =
  Mutex.lock memo_lock;
  Hashtbl.reset memo;
  Mutex.unlock memo_lock

let stable a b = if b then a.stable1 else a.stable0
let unstable a b = if b then a.unstable1 else a.unstable0
let stable_union a = Downset.union a.stable0 a.stable1
let is_stable a b c = Downset.mem c (stable a b)

let pp_summary fmt a =
  Format.fprintf fmt
    "SC_0: %d basis elements, norm %d; SC_1: %d basis elements, norm %d"
    (Downset.size a.stable0) (Downset.norm a.stable0) (Downset.size a.stable1)
    (Downset.norm a.stable1)
