(* The reference for Section 4.1's f(n): one multiset exploration per
   protocol and input (Configgraph.explore, then a forward search for a
   configuration whose consensus output is 1 via
   Population.output_of_config), one protocol at a time. It shares no
   code with the support summaries Section_4_1 and the census read. *)
let min_accepting_input ?(max_configs = 60_000) p ~max_input =
  if not (Array.exists Fun.id p.Population.output) then None
  else begin
    let accepting c = Population.output_of_config p c = Some true in
    let inputs = Fair_semantics.valid_inputs_single p ~max:max_input in
    let rec go = function
      | [] -> None
      | i :: rest ->
        let g = Configgraph.explore ~max_configs p (Population.initial_single p i) in
        if Configgraph.can_reach g ~src:g.Configgraph.root accepting then Some i
        else go rest
    in
    go inputs
  end

(* Section 4.1's f over every code of the n-state space, protocol by
   protocol and unpruned — the reference for
   [Busy_beaver.scan ~analysis:All_1]: (unreachable, aborted,
   histogram). *)
let scan ?(max_input = 12) ?max_configs ~n () =
  let unreachable = ref 0 and aborted = ref 0 in
  let hist = Hashtbl.create 16 in
  for assignment = 0 to Busy_beaver.num_assignments n - 1 do
    for output_bits = 0 to (1 lsl n) - 1 do
      let p = Busy_beaver.protocol_of_code ~n ~assignment ~output_bits in
      match min_accepting_input ?max_configs p ~max_input with
      | Some i ->
        Hashtbl.replace hist i (1 + Option.value (Hashtbl.find_opt hist i) ~default:0)
      | None -> incr unreachable
      | exception Configgraph.Too_many_configs _ -> incr aborted
    done
  done;
  ( !unreachable,
    !aborted,
    List.sort Stdlib.compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) hist []) )
