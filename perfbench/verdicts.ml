(* The exact semantics as Busy_beaver's scan and Eta_search.find apply
   it, rebuilt from the layers' public functions so that the traced runs
   can put a span around each layer: a verdict is the consensus of the
   bottom components, and a threshold sweep lets the output flip from 0
   to 1 once. *)

let sp_eta = Spans.name "eta_search.find"
let sp_explore_packed = Spans.name "configgraph.explore_packed"
let sp_verdict = Spans.name "fair_semantics.verdict"

(* Consensus output per support bitmask: 0 none, 1 all reject, 2 all
   accept — a packed configuration's output depends on its support only. *)
let support_table p =
  let d = Population.num_states p in
  Array.init (1 lsl d) (fun mask ->
      let rec go s acc =
        if s >= d then (match acc with Some false -> 1 | Some true -> 2 | None -> 0)
        else if mask land (1 lsl s) = 0 then go (s + 1) acc
        else
          let o = p.Population.output.(s) in
          match acc with
          | None -> go (s + 1) (Some o)
          | Some b -> if b = o then go (s + 1) acc else 0
      in
      if mask = 0 then 0 else go 0 None)

let packed_output ~d tbl c =
  let mask = ref 0 in
  for s = 0 to d - 1 do
    if (c lsr (8 * s)) land 0xff <> 0 then mask := !mask lor (1 lsl s)
  done;
  match tbl.(!mask) with 1 -> Some false | 2 -> Some true | _ -> None

(* The consensus of a component, if all its members agree. *)
let component_output output members =
  let rec go acc = function
    | [] -> acc
    | v :: rest ->
      (match (output v, acc) with
       | None, _ -> None
       | Some b, None -> go (Some b) rest
       | Some b, Some b' -> if b = b' then go acc rest else None)
  in
  match members with [] -> None | _ -> go None members

type counts = { mutable decisions : int; mutable sccs : int; mutable bottoms : int; mutable inputs : int }

let counts () = { decisions = 0; sccs = 0; bottoms = 0; inputs = 0 }

type eta = Eta of int | Accepts_all | Rejects_all | Not_threshold

(* Eta_search.find's sweep: the output may flip from 0 to 1 once. *)
let eta_sweep ~decide inputs =
  let first = List.hd inputs in
  let rec go flipped = function
    | [] ->
      (match flipped with
       | Some eta -> if eta = first then Accepts_all else Eta eta
       | None -> Rejects_all)
    | i :: rest ->
      (match decide i with
       | Some true -> go (if flipped = None then Some i else flipped) rest
       | Some false -> if flipped = None then go None rest else Not_threshold
       | None -> Not_threshold)
  in
  go None inputs

