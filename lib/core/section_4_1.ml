(* IC(i) reaches All_1 under the output map [output] (a state bitmask)
   iff some configuration reachable from it has every agent on an
   output-1 state, i.e. a support inside [output]. *)
let reaches_all_1 ~output (s : Fair_semantics.summary) =
  List.exists (fun u -> u land lnot output = 0) s.Fair_semantics.reached

let min_accepting_input p ~max_input =
  let output = Fair_semantics.output_mask p in
  if output = 0 then None
  else
    List.find_opt
      (fun i ->
        reaches_all_1 ~output
          (Fair_semantics.summarise ~max_configs:60_000 p
             (Population.initial_single p i)))
      (Fair_semantics.valid_inputs_single p ~max:max_input)
