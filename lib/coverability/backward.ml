type stats = {
  iterations : int;
  added : int;
}

let m_fixpoints = Obs.Metrics.counter "backward.fixpoints"
let m_candidates = Obs.Metrics.counter "backward.candidates"
let m_added = Obs.Metrics.counter "backward.added"
let m_pruned = Obs.Metrics.counter "backward.pruned"
let m_generations = Obs.Metrics.counter "backward.generations"

(* Least configuration that enables transition [t] and whose [t]-successor
   covers [m]: pointwise max of the transition's precondition and
   [m - Δ_t] (clamped at zero). *)
let pre_element p ti m =
  let d = Population.num_states p in
  let { Population.pre = a, b; _ } = p.Population.transitions.(ti) in
  let delta = Population.displacement p ti in
  let v =
    Array.init d (fun i ->
        let need = Mset.get m i - Intvec.get delta i in
        Stdlib.max 0 need)
  in
  v.(a) <- Stdlib.max v.(a) (if a = b then 2 else 1);
  if a <> b then v.(b) <- Stdlib.max v.(b) 1;
  Mset.of_array v

(* frontier elements per pool task *)
let chunk = 4

(* Generation-synchronous fixpoint: each round expands the whole current
   frontier. Per-candidate work — the [pre_element] computation and the
   membership test against the upset as it stood at the start of the
   generation — is embarrassingly parallel, and the membership pre-filter
   is sound because the upset only grows: a candidate already covered by
   the snapshot stays covered. Candidates that survive the pre-filter go
   through the authoritative [Upset.add] in the sequential index-ordered
   reduction, so the computed basis — and, because candidates are counted
   per generation as [|frontier| * |T|] regardless of scheduling — every
   counter is byte-identical for any [jobs] setting. *)
let pre_star_stats ?(jobs = 1) p u =
  let nt = Population.num_transitions p in
  let candidates = ref 0 in
  let added = ref 0 in
  let generations = ref 0 in
  let progress = Obs.Progress.create "backward.pre_star" in
  let current = ref u in
  let frontier = ref (Array.of_list (Upset.minimal_elements u)) in
  (* slot [i]: frontier element [i]'s candidates that survived the
     snapshot pre-filter, in transition order *)
  let slots = ref [||] in
  let pending = ref false in
  let next () =
    if !pending then begin
      pending := false;
      let fresh = ref [] in
      Array.iter
        (fun cands ->
          List.iter
            (fun cand ->
              match Upset.add cand !current with
              | None -> ()
              | Some set' ->
                incr added;
                current := set';
                fresh := cand :: !fresh)
            cands)
        !slots;
      frontier := Array.of_list (List.rev !fresh)
    end;
    let n = Array.length !frontier in
    if n = 0 then None
    else begin
      incr generations;
      Obs.Progress.tick progress (fun () ->
          Printf.sprintf "generation %d: %d candidates, %d basis elements, frontier %d"
            !generations !candidates !added n);
      candidates := !candidates + (n * nt);
      slots := Array.make n [];
      pending := true;
      Some n
    end
  in
  let result =
    Obs.Trace.with_span "backward.pre_star" ~cat:"coverability"
      ~args:[ ("transitions", string_of_int nt) ]
      (fun () ->
        (* [stage] is the upset as of the opening of the current round —
           the pre-filter snapshot the workers read *)
        let stage = ref !current in
        let frontier_ref = frontier and slots_ref = slots in
        let next () =
          let r = next () in
          stage := !current;
          r
        in
        ignore
          (Pool.run_rounds ~jobs ~chunk ~name:"backward" ~next
             (fun ~lo ~hi ->
               let frontier = !frontier_ref
               and slots = !slots_ref
               and snapshot = !stage in
               for i = lo to hi - 1 do
                 let m = frontier.(i) in
                 let acc = ref [] in
                 for ti = nt - 1 downto 0 do
                   let cand = pre_element p ti m in
                   if not (Upset.mem cand snapshot) then acc := cand :: !acc
                 done;
                 slots.(i) <- !acc
               done));
        !current)
  in
  Obs.Progress.finish progress (fun () ->
      Printf.sprintf "fixpoint: %d candidates, %d basis elements" !candidates !added);
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr m_fixpoints;
    Obs.Metrics.add m_candidates !candidates;
    Obs.Metrics.add m_added !added;
    Obs.Metrics.add m_pruned (!candidates - !added);
    Obs.Metrics.add m_generations !generations
  end;
  (result, { iterations = !candidates; added = !added })

let pre_star ?jobs p u = fst (pre_star_stats ?jobs p u)

let coverable p ~from ~target =
  let u = Upset.of_elements (Population.num_states p) [ target ] in
  Upset.mem from (pre_star p u)
