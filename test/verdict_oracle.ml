(* The reference verdict the fair-semantics tests compare against: the
   multiset graph from Configgraph.explore, its SCCs from Scc.compute,
   and the consensus of every bottom SCC read off the configurations
   with Population.output_of_config. It shares no code with
   Fair_semantics' packed path or its lazy strategy. The verdict is the
   canonical one: No_consensus if some bottom SCC lacks consensus, else
   Conflicting if two bottom SCCs disagree, else Decides b. *)
let verdict p v =
  let g = Configgraph.explore p (Population.initial_config p v) in
  let scc = Scc.compute g.Configgraph.succ in
  let outputs =
    List.map
      (fun comp ->
        let outs =
          List.map
            (fun i -> Population.output_of_config p g.Configgraph.configs.(i))
            scc.Scc.members.(comp)
        in
        match List.sort_uniq Stdlib.compare outs with
        | [ Some b ] -> Some b
        | _ -> None)
      (Scc.bottom_components scc)
  in
  if List.mem None outputs then Fair_semantics.No_consensus
  else
    match List.sort_uniq Stdlib.compare outputs with
    | [ Some b ] -> Fair_semantics.Decides b
    | _ -> Fair_semantics.Conflicting
