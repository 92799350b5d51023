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

(* The canonical verdict of a graph's bottom components, [consensus c]
   being component [c]'s consensus output: No_consensus if any lacks
   one, else Conflicting if two disagree, else Decides. Every node of
   the graph is reachable from the root by construction, so every
   bottom SCC is relevant, and a finite non-empty graph has at least
   one. The verdict does not depend on the order components are
   examined, so the lazy path (which pops bottom SCCs in its own DFS
   order) agrees with a verdict read from a whole graph's summary. *)
let canonical_verdict consensus comps =
  let rec go zero one = function
    | [] ->
      if zero && one then Conflicting
      else if one then Decides true
      else if zero then Decides false
      else assert false
    | c :: rest ->
      (match consensus c with
       | None -> No_consensus
       | Some b -> go (zero || not b) (one || b) rest)
  in
  go false false comps

(* The bottom-SCC rule on supports. A configuration's consensus output
   depends on its support alone, so a component whose members' supports
   have union [u] (a state bitmask) is a 1-consensus iff u ⊆ output, a
   0-consensus iff u ∩ output = ∅, and has no consensus otherwise. Only
   the empty configuration has an empty support; it has no consensus. *)
let consensus_of_union ~output u =
  if u = 0 then None
  else if u land lnot output = 0 then Some true
  else if u land output = 0 then Some false
  else None

let verdict_of_unions ~output unions =
  canonical_verdict (consensus_of_union ~output) unions

let output_mask p =
  let mask = ref 0 in
  Array.iteri (fun s b -> if b then mask := !mask lor (1 lsl s)) p.Population.output;
  !mask

(* Support bitmask of a packed configuration: state [s] holds byte [s]
   (at most 7 of them, see {!Mset.pack}). The three shifts OR each
   byte's bits into its lowest one; the multiplication then gathers the
   lowest bit of byte [s] at bit [56 + s] — the partial products land on
   pairwise distinct bits, so nothing carries — and the shift brings
   them down. It runs once per node of every summarised graph, where a
   loop over the states costs measurably more. *)
let packed_support c =
  let x = c lor (c lsr 4) in
  let x = x lor (x lsr 2) in
  let x = (x lor (x lsr 1)) land 0x01010101010101 in
  ((x * 0x102040810204080) lsr 56) land 0x7f

let mset_support ~num_states c =
  let mask = ref 0 in
  for s = 0 to num_states - 1 do
    if Mset.get c s <> 0 then mask := !mask lor (1 lsl s)
  done;
  !mask

let publish ~sccs ~bottoms =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr m_decisions;
    Obs.Metrics.add m_sccs sccs;
    Obs.Metrics.add m_bottom_sccs bottoms
  end

(* The lazy path on either representation: bottom SCCs are judged as
   Tarjan pops them ([consensus] being one component's consensus output,
   given its member configurations), and a consensus-free one —
   canonically the maximal verdict — stops the exploration before the
   rest of the graph is built. *)
let decide_with explore_sccs consensus =
  let seen = ref [] in
  let sccs =
    explore_sccs ~on_bottom:(fun members ->
        let c = consensus members in
        seen := c :: !seen;
        match c with None -> `Stop | Some _ -> `Continue)
  in
  publish ~sccs ~bottoms:(List.length !seen);
  canonical_verdict Fun.id !seen

let decide_config ?max_configs p c0 =
  Obs.Trace.with_span "fair_semantics.decide" ~cat:"verify"
    ~args:[ ("protocol", p.Population.name) ]
    (fun () ->
      if Configgraph.Packed.applicable p c0 then
        let output = output_mask p in
        decide_with
          (Configgraph.Packed.explore_sccs ?max_configs p c0)
          (fun members ->
            consensus_of_union ~output
              (List.fold_left
                 (fun u c -> u lor packed_support c)
                 0 members))
      else
        decide_with
          (Configgraph.explore_sccs ?max_configs p c0)
          (component_output ~output_of_node:(Population.output_of_config p)))

type summary = { bottoms : int list; reached : int list }

let summarise ?max_configs p c0 =
  let num_states = Population.num_states p in
  let succ, support =
    if Configgraph.Packed.applicable p c0 then
      let g = Configgraph.Packed.explore ?max_configs p c0 in
      let configs = g.Configgraph.Packed.configs in
      (g.Configgraph.Packed.succ, fun v -> packed_support configs.(v))
    else if num_states < Sys.int_size then
      let g = Configgraph.explore ?max_configs p c0 in
      let configs = g.Configgraph.configs in
      (g.Configgraph.succ, fun v -> mset_support ~num_states configs.(v))
    else invalid_arg "Fair_semantics.summarise: too many states for a support mask"
  in
  let scc = Scc.compute succ in
  let bottom = Scc.bottom_components scc in
  publish ~sccs:scc.Scc.num_components ~bottoms:(List.length bottom);
  let union comp =
    List.fold_left (fun u v -> u lor support v) 0 scc.Scc.members.(comp)
  in
  (* the distinct supports: a seen-table over all 2^d masks when they
     are few (always on packed graphs), a sort otherwise *)
  let reached =
    if num_states <= Mset.max_packed_dim then begin
      let seen = Bytes.make (1 lsl num_states) '\000' in
      for v = 0 to Array.length succ - 1 do
        Bytes.set seen (support v) '\001'
      done;
      let acc = ref [] in
      for m = (1 lsl num_states) - 1 downto 0 do
        if Bytes.get seen m = '\001' then acc := m :: !acc
      done;
      !acc
    end
    else List.sort_uniq Int.compare (List.init (Array.length succ) support)
  in
  { bottoms = List.sort_uniq Int.compare (List.map union bottom); reached }

let decide ?max_configs p v =
  decide_config ?max_configs p (Population.initial_config p v)

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
