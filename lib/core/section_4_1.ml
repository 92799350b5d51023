(* IC(i) reaches All_1 under the output map [output] (a state bitmask)
   iff some configuration reachable from it has every agent on an
   output-1 state, i.e. a support inside [output]. *)
let reaches_all_1 ~output (s : Fair_semantics.summary) =
  List.exists (fun u -> u land lnot output = 0) s.Fair_semantics.reached

let min_accepting_input ?(max_configs = 60_000) p ~max_input =
  let output = Fair_semantics.output_mask p in
  let rec go = function
    | [] -> None
    | i :: rest ->
      let s =
        Fair_semantics.summarise ~max_configs p (Population.initial_single p i)
      in
      if reaches_all_1 ~output s then Some i else go rest
  in
  if output = 0 then None
  else go (Fair_semantics.valid_inputs_single p ~max:max_input)

type scan_result = {
  num_protocols : int;
  max_f : int;
  num_unreachable : int;
  num_aborted : int;
  histogram : (int * int) list;
}

(* Assignment-major, like the census: each assignment's summaries serve
   all of its output maps. *)
let scan ?(max_input = 12) ?(max_configs = 60_000) ~n () =
  let sums = Busy_beaver.Summaries.create ~max_configs ~n ~max_input () in
  let inputs = Busy_beaver.Summaries.inputs sums in
  let max_f = ref 0 in
  let num_unreachable = ref 0 in
  let num_aborted = ref 0 in
  let histogram = Hashtbl.create 16 in
  for assignment = 0 to Busy_beaver.num_assignments n - 1 do
    (* output map 0 has no output-1 state: All_1 is out of reach
       without exploring anything *)
    incr num_unreachable;
    for output = 1 to (1 lsl n) - 1 do
      let rec go = function
        | [] -> incr num_unreachable
        | i :: rest ->
          (match Busy_beaver.Summaries.get sums ~assignment i with
           | None -> incr num_aborted
           | Some s when reaches_all_1 ~output s ->
             Hashtbl.replace histogram i
               (1 + Option.value (Hashtbl.find_opt histogram i) ~default:0);
             if i > !max_f then max_f := i
           | Some _ -> go rest)
      in
      go inputs
    done
  done;
  {
    num_protocols = Busy_beaver.num_deterministic_protocols n;
    max_f = !max_f;
    num_unreachable = !num_unreachable;
    num_aborted = !num_aborted;
    histogram =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) histogram []
      |> List.sort Stdlib.compare;
  }
