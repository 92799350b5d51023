type verdict =
  | Decides of bool
  | No_consensus
  | Conflicting

let pp_verdict fmt = function
  | Decides b -> Format.fprintf fmt "decides %d" (Bool.to_int b)
  | No_consensus -> Format.pp_print_string fmt "no consensus in some bottom SCC"
  | Conflicting -> Format.pp_print_string fmt "conflicting bottom SCCs"

let m_decisions = Obs.Metrics.counter "fair.decisions"
let m_sccs = Obs.Metrics.counter "fair.sccs"
let m_bottom_sccs = Obs.Metrics.counter "fair.bottom_sccs"

(* Consensus output of a whole component: Some b if every member
   configuration has output b. *)
let component_output ~output_of_node members =
  let rec go members acc =
    match members with
    | [] -> acc
    | v :: rest ->
      (match output_of_node v with
       | None -> None
       | Some b ->
         (match acc with
          | None -> go rest (Some b)
          | Some b' -> if b = b' then go rest acc else None))
  in
  go members None

(* Shared bottom-SCC consensus logic, abstracted over the configuration
   representation: [output_of_node] is the consensus output of one
   configuration (None when its agents disagree). Every node of the
   graph is reachable from the root by construction, so every bottom SCC
   is relevant; a finite non-empty graph has at least one.

   The verdict is canonical — No_consensus over Conflicting over
   Decides, independent of the order components are examined — so the
   eager path here and the incremental path (which pops bottom SCCs in
   its own DFS order) always agree. *)
let verdict_of_bottom ~output_of_node (scc : Scc.t) bottom =
  let rec go seen conflict = function
    | [] ->
      if conflict then Conflicting
      else (match seen with Some b -> Decides b | None -> assert false)
    | comp :: rest ->
      (match component_output ~output_of_node scc.Scc.members.(comp) with
       | None -> No_consensus
       | Some b ->
         (match seen with
          | None -> go (Some b) conflict rest
          | Some b' -> go seen (conflict || b <> b') rest))
  in
  go None false bottom

(* The incremental counterpart: fed one bottom component at a time by
   {!Configgraph.explore_sccs}. A component without consensus decides
   the (canonically maximal) verdict No_consensus outright, so the
   exploration can stop there; agreeing components merely accumulate. *)
type incremental = {
  mutable seen : bool option;
  mutable conflict : bool;
  mutable undecided : bool;
  mutable bottoms : int;
}

let incremental_start () =
  { seen = None; conflict = false; undecided = false; bottoms = 0 }

let incremental_step st = function
  | None ->
    st.bottoms <- st.bottoms + 1;
    st.undecided <- true;
    `Stop
  | Some b ->
    st.bottoms <- st.bottoms + 1;
    (match st.seen with
     | None -> st.seen <- Some b
     | Some b' -> if b <> b' then st.conflict <- true);
    `Continue

let incremental_verdict st =
  if st.undecided then No_consensus
  else if st.conflict then Conflicting
  else match st.seen with Some b -> Decides b | None -> assert false

let publish ~sccs ~bottoms =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr m_decisions;
    Obs.Metrics.add m_sccs sccs;
    Obs.Metrics.add m_bottom_sccs bottoms
  end

(* The packed path never materialises multisets: a configuration's
   output depends only on its support, so a 2^states table indexed by
   the support bitmask answers [output_of_config] in two shifts. Slots:
   0 = no consensus, 1 = all-reject, 2 = all-accept. *)
let support_output_table p =
  let d = Population.num_states p in
  let tbl = Bytes.make (1 lsl d) '\000' in
  for mask = 1 to (1 lsl d) - 1 do
    let rec go s acc =
      if s >= d then (match acc with Some false -> 1 | Some true -> 2 | None -> 0)
      else if mask land (1 lsl s) = 0 then go (s + 1) acc
      else
        match acc with
        | None -> go (s + 1) (Some p.Population.output.(s))
        | Some b -> if p.Population.output.(s) = b then go (s + 1) acc else 0
    in
    Bytes.set tbl mask (Char.chr (go 0 None))
  done;
  tbl

(* Output of a packed configuration: project its support bitmask and
   index the table. *)
let packed_output ~num_states tbl c =
  let mask = ref 0 in
  for s = 0 to num_states - 1 do
    if (c lsr (8 * s)) land 0xff <> 0 then mask := !mask lor (1 lsl s)
  done;
  match Bytes.get tbl !mask with
  | '\001' -> Some false
  | '\002' -> Some true
  | _ -> None

(* Either strategy on either representation: [explore_sccs] feeds the
   lazy path its bottom components, [explore] materialises the graph for
   the eager one, and [output] is the consensus output of one node's
   configuration. *)
let decide_with ~incremental ~explore_sccs ~explore output =
  if incremental then begin
    (* Lazy path: bottom SCCs are judged as Tarjan pops them, and a
       consensus-free one — canonically the maximal verdict — stops the
       exploration before the rest of the graph is built. *)
    let st = incremental_start () in
    let sccs =
      explore_sccs ~on_bottom:(fun members ->
          incremental_step st (component_output ~output_of_node:output members))
    in
    publish ~sccs ~bottoms:st.bottoms;
    incremental_verdict st
  end
  else begin
    let succ, configs = explore () in
    let scc = Scc.compute succ in
    let bottom = Scc.bottom_components scc in
    publish ~sccs:scc.Scc.num_components ~bottoms:(List.length bottom);
    verdict_of_bottom ~output_of_node:(fun v -> output configs.(v)) scc bottom
  end

let decide_config ?max_configs ?deadline ?(incremental = true) p c0 =
  Obs.Trace.with_span "fair_semantics.decide" ~cat:"verify"
    ~args:[ ("protocol", p.Population.name) ]
    (fun () ->
      if Configgraph.Packed.applicable p c0 then
        decide_with ~incremental
          ~explore_sccs:
            (Configgraph.Packed.explore_sccs ?max_configs ?deadline p c0)
          ~explore:(fun () ->
            let g = Configgraph.Packed.explore ?max_configs ?deadline p c0 in
            (g.Configgraph.Packed.succ, g.Configgraph.Packed.configs))
          (packed_output ~num_states:(Population.num_states p)
             (support_output_table p))
      else
        decide_with ~incremental
          ~explore_sccs:(Configgraph.explore_sccs ?max_configs ?deadline p c0)
          ~explore:(fun () ->
            let g = Configgraph.explore ?max_configs ?deadline p c0 in
            (g.Configgraph.succ, g.Configgraph.configs))
          (Population.output_of_config p))

let decide ?max_configs ?deadline ?incremental p v =
  decide_config ?max_configs ?deadline ?incremental p
    (Population.initial_config p v)

type check_result =
  | Ok_all of int
  | Mismatch of int array * verdict * bool

let check_predicate ?max_configs p spec ~inputs =
  let rec go n = function
    | [] -> Ok_all n
    | v :: rest ->
      let expected = Predicate.eval spec v in
      (match decide ?max_configs p v with
       | Decides b when b = expected -> go (n + 1) rest
       | verdict -> Mismatch (v, verdict, expected))
  in
  go 0 inputs

let valid_inputs_single p ~max =
  let leaders = Mset.size p.Population.leaders in
  let lo = Stdlib.max 0 (2 - leaders) in
  List.init (Stdlib.max 0 (max - lo + 1)) (fun i -> i + lo)
