type scan_result = {
  num_protocols : int;
  num_threshold : int;
  num_reject_all : int;
  num_aborted : int;
  best_eta : int;
  best : Population.t option;
  histogram : (int * int) list;
  completed_chunks : int;
  total_chunks : int;
  interrupted : bool;
  task_errors : int;
}

type analysis = Threshold | All_1

let pairs n =
  List.concat_map
    (fun i -> List.map (fun j -> (i, j)) (List.init (n - i) (fun k -> i + k)))
    (List.init n Fun.id)
  |> Array.of_list

let num_assignments n =
  let p = n * (n + 1) / 2 in
  let rec pow b e acc = if e = 0 then acc else pow b (e - 1) (acc * b) in
  pow p p 1

let num_deterministic_protocols n = num_assignments n * (1 lsl n)

let code_name n ~assignment ~output_bits =
  Printf.sprintf "bb-%d-%d-%d" n assignment output_bits

(* Decode a protocol from (transition assignment index, output bitmap). *)
let decode n ~pair_list ~assignment ~output_bits =
  let np = Array.length pair_list in
  let transitions = ref [] in
  let code = ref assignment in
  for i = 0 to np - 1 do
    let target = !code mod np in
    code := !code / np;
    let p, q = pair_list.(i) in
    let p', q' = pair_list.(target) in
    transitions := (p, q, p', q') :: !transitions
  done;
  let output = Array.init n (fun s -> output_bits land (1 lsl s) <> 0) in
  Population.make
    ~name:(code_name n ~assignment ~output_bits)
    ~states:(Array.init n (fun i -> Printf.sprintf "q%d" i))
    ~transitions:!transitions
    ~inputs:[ ("x", 0) ]
    ~output ()

let check_n who n =
  if n < 1 || n > 4 then
    invalid_arg (Printf.sprintf "Busy_beaver.%s: 1 <= n <= 4" who)

let protocol_of_code ~n ~assignment ~output_bits =
  check_n "protocol_of_code" n;
  decode n ~pair_list:(pairs n) ~assignment ~output_bits

(* Sampled codes come from per-index splits of the master stream (the
   [Ensemble.rng_for_trial] scheme): sample [i] depends only on the seed
   and [i], never on the chunking or the domain count, and is computed
   in O(1). *)
let sample_code ~n ~seed i =
  check_n "sample_code" n;
  let rng = Splitmix64.nth_split ~seed i in
  let assignment = Splitmix64.int_below rng (num_assignments n) in
  (assignment, Splitmix64.int_below rng (1 lsl n))

module Symmetry = struct
  (* The group acting on the code space. A state permutation sends a
     protocol to an isomorphic one (same decided predicate, same
     threshold), but the enumeration fixes the input state to 0, so the
     permutations that keep the code space closed are exactly the
     stabiliser of state 0 — S_{n-1} acting on states 1..n-1. Each
     element is stored with its induced permutation of unordered state
     pairs, which is how it acts on transition-assignment digits. *)
  type t = {
    np : int;
    n : int;
    elems : (int array * int array) array;
        (* (state perm, pair perm), identity excluded *)
    powers : int array;  (* np^k for re-encoding assignment digits *)
  }

  let rec insertions x = function
    | [] -> [ [ x ] ]
    | y :: rest as l ->
      (x :: l) :: List.map (fun r -> y :: r) (insertions x rest)

  let rec permutations = function
    | [] -> [ [] ]
    | x :: rest -> List.concat_map (insertions x) (permutations rest)

  let make n =
    check_n "Symmetry.make" n;
    let pair_list = pairs n in
    let np = Array.length pair_list in
    let pair_index = Array.make (n * n) 0 in
    Array.iteri (fun k (a, b) -> pair_index.((a * n) + b) <- k) pair_list;
    let elems =
      permutations (List.init (n - 1) (fun i -> i + 1))
      |> List.filter_map (fun tail ->
             let sperm = Array.of_list (0 :: tail) in
             if Array.for_all2 ( = ) sperm (Array.init n Fun.id) then None
             else begin
               let pperm =
                 Array.map
                   (fun (a, b) ->
                     let a' = sperm.(a) and b' = sperm.(b) in
                     let a', b' = if a' <= b' then (a', b') else (b', a') in
                     pair_index.((a' * n) + b'))
                   pair_list
               in
               Some (sperm, pperm)
             end)
      |> Array.of_list
    in
    let powers = Array.make np 1 in
    for k = 1 to np - 1 do
      powers.(k) <- powers.(k - 1) * np
    done;
    { np; n; elems; powers }

  (* Image of a code under one group element: assignment digit i (the
     target pair of pair i) moves to position pperm(i) with value
     pperm(digit); output bit s moves to sperm(s). *)
  let apply t (sperm, pperm) ~assignment ~output_bits =
    let a' = ref 0 in
    let code = ref assignment in
    for i = 0 to t.np - 1 do
      let target = !code mod t.np in
      code := !code / t.np;
      a' := !a' + (pperm.(target) * t.powers.(pperm.(i)))
    done;
    let o' = ref 0 in
    for s = 0 to t.n - 1 do
      if output_bits land (1 lsl s) <> 0 then o' := !o' lor (1 lsl sperm.(s))
    done;
    (!a', !o')

  let orbit t ~assignment ~output_bits =
    Array.fold_left
      (fun acc g ->
        let image = apply t g ~assignment ~output_bits in
        if List.mem image acc then acc else image :: acc)
      [ (assignment, output_bits) ]
      t.elems

  let canonical t ~assignment ~output_bits =
    List.fold_left Stdlib.min (assignment, output_bits)
      (List.map
         (fun g -> apply t g ~assignment ~output_bits)
         (Array.to_list t.elems))

  (* [Some orbit_size] when the code is the lexicographic minimum of its
     orbit (the member the pruned scan verifies, standing in for the
     whole orbit), [None] when a smaller member exists. *)
  let canonical_weight t ~assignment ~output_bits =
    let self = (assignment, output_bits) in
    let rec go i distinct =
      if i >= Array.length t.elems then Some (1 + List.length distinct)
      else
        let image = apply t t.elems.(i) ~assignment ~output_bits in
        if image < self then None
        else
          go (i + 1)
            (if image = self || List.mem image distinct then distinct
             else image :: distinct)
    in
    go 0 []

  let order t = 1 + Array.length t.elems
end

let m_scanned = Obs.Metrics.counter "bbsearch.protocols_scanned"
let m_threshold = Obs.Metrics.counter "bbsearch.threshold_protocols"
let m_aborted = Obs.Metrics.counter "bbsearch.config_budget_aborts"
let m_pruned = Obs.Metrics.counter "bbsearch.pruned_symmetry"
let m_summaries = Obs.Metrics.counter "bbsearch.summaries"

(* A code's configuration graphs depend on its transition assignment
   alone; the output map only labels them. So the census explores each
   (assignment, input) once and reads every output map's verdicts from
   that one summary. The cache holds one assignment at a time: the
   exhaustive enumeration is assignment-major (code index = a * 2^n + o),
   so a chunk meets each of its assignments in one run of codes, while
   a sampled chunk rarely meets an assignment twice.

   Every agent of every configuration reachable from any input sits in
   the assignment's coverable states (the closure of state 0, the
   premise of Lemma 5.4), so an output map constant on them gives
   every input that verdict, and the code needs no summary at all. *)
module Summaries = struct
  type slot = Unfilled | Summary of Fair_semantics.summary | Aborted

  type t = {
    n : int;
    pair_list : (int * int) array;
    max_configs : int;
    inputs : int list;
    within_budget : bool;  (* no graph up to the cutoff can abort *)
    slots : slot array;  (* slot k: input k + 2, the least valid input *)
    mutable assignment : int;  (* -1 until the first [select] *)
    mutable protocol : Population.t;
    mutable closure : int;  (* the assignment's coverable states, a mask *)
  }

  let create ?(max_configs = 60_000) ~n ~max_input () =
    check_n "Summaries.create" n;
    let pair_list = pairs n in
    let protocol = decode n ~pair_list ~assignment:0 ~output_bits:0 in
    (* every code has the same valid inputs: no leaders, so 2..max_input *)
    let inputs = Fair_semantics.valid_inputs_single protocol ~max:max_input in
    (* C(max_input + n - 1, n - 1), the configurations of [max_input]
       agents on [n] states: no graph up to the cutoff has more nodes,
       so at this budget none aborts, and deciding a code without its
       graphs hides no abort *)
    let largest = ref 1 in
    for k = 1 to n - 1 do
      largest := !largest * (max_input + k) / k
    done;
    {
      n;
      pair_list;
      max_configs;
      inputs;
      within_budget = max_configs >= !largest;
      slots = Array.make (List.length inputs) Unfilled;
      assignment = -1;
      protocol;
      closure = 0;
    }

  let inputs t = t.inputs

  let select t assignment =
    if assignment <> t.assignment then begin
      t.assignment <- assignment;
      t.protocol <- decode t.n ~pair_list:t.pair_list ~assignment ~output_bits:0;
      t.closure <- 0;
      Array.iteri
        (fun s coverable -> if coverable then t.closure <- t.closure lor (1 lsl s))
        (Transform.coverable_states t.protocol);
      Array.fill t.slots 0 (Array.length t.slots) Unfilled
    end

  let constant t ~assignment ~output_bits =
    select t assignment;
    if not t.within_budget then None
    else if output_bits land t.closure = 0 then Some false
    else if t.closure land lnot output_bits = 0 then Some true
    else None

  let get t ~assignment i =
    select t assignment;
    let k = i - 2 in
    match t.slots.(k) with
    | Summary s -> Some s
    | Aborted -> None
    | Unfilled ->
      let p = t.protocol in
      Obs.Metrics.incr m_summaries;
      let slot =
        match
          Obs.Trace.with_span "bbsearch.summarise" ~cat:"bbsearch"
            ~args:[ ("protocol", p.Population.name); ("input", string_of_int i) ]
            (fun () ->
              Fair_semantics.summarise ~max_configs:t.max_configs p
                (Population.initial_config p [| i |]))
        with
        | s -> Summary s
        | exception Configgraph.Too_many_configs _ -> Aborted
      in
      t.slots.(k) <- slot;
      (match slot with Summary s -> Some s | Unfilled | Aborted -> None)
end

(* Per-chunk accumulator. Chunks are a fixed partition of the code
   space, each owned by exactly one worker; the driver reduces them in
   index order, so aggregates are byte-identical for every jobs/chunk
   setting (the [Pool] contract). The best protocol is held as its code
   — not a decoded [Population.t] — so a checkpointed chunk can be
   restored byte-identically by re-decoding. *)
type partial = {
  mutable p_scanned : int;
  mutable p_threshold : int;
  mutable p_reject_all : int;
  mutable p_aborted : int;
  mutable p_best_eta : int;
  mutable p_best_code : (int * int) option;
  p_hist : (int, int) Hashtbl.t;
}

let fresh_partial () =
  {
    p_scanned = 0;
    p_threshold = 0;
    p_reject_all = 0;
    p_aborted = 0;
    p_best_eta = 0;
    p_best_code = None;
    p_hist = Hashtbl.create 8;
  }

(* Checkpoint serialisation of one chunk accumulator. The histogram is
   emitted sorted so equal accumulators always render identically. *)
let partial_to_json part =
  let open Obs.Json in
  let hist =
    Hashtbl.fold (fun eta count acc -> (eta, count) :: acc) part.p_hist []
    |> List.sort Stdlib.compare
    |> List.map (fun (eta, count) -> List [ Int eta; Int count ])
  in
  Obj
    [
      ("scanned", Int part.p_scanned);
      ("threshold", Int part.p_threshold);
      ("reject_all", Int part.p_reject_all);
      ("aborted", Int part.p_aborted);
      ("best_eta", Int part.p_best_eta);
      ( "best_code",
        match part.p_best_code with
        | None -> Null
        | Some (a, o) -> List [ Int a; Int o ] );
      ("hist", List hist);
    ]

let partial_of_json j =
  let open Obs.Json.Decode in
  Result.map_error (( ^ ) "chunk state: ")
    (let* p_scanned = field "scanned" int j in
     let* p_threshold = field "threshold" int j in
     let* p_reject_all = field "reject_all" int j in
     let* p_aborted = field "aborted" int j in
     let* p_best_eta = field "best_eta" int j in
     let* p_best_code = field_opt "best_code" (pair int int) j in
     let* hist = field_opt "hist" (list (pair int int)) j in
     let p_hist = Hashtbl.create 8 in
     List.iter
       (fun (eta, n) -> Hashtbl.replace p_hist eta n)
       (Option.value ~default:[] hist);
     Ok
       { p_scanned; p_threshold; p_reject_all; p_aborted; p_best_eta;
         p_best_code; p_hist })

(* ------------------------------------------------------------- plans *)

(* A plan pins everything that shapes the chunk partition or the
   per-chunk content of a scan — the analysis, the code space, cutoffs,
   symmetry pruning, sampling scheme and chunk size; the chunk ranges
   are computed from the last two, never stored. Any two agents
   (domains of one process, or worker processes on other machines)
   holding equal plans compute byte-identical chunk accumulators for
   equal chunk indices; that is the whole determinism story of the
   distributed scan. *)
type plan = {
  pl_analysis : analysis;
  pl_n : int;
  pl_pair_list : (int * int) array;
  pl_num_outputs : int;
  pl_max_input : int;
  pl_max_configs : int;
  pl_prune : bool;
  pl_chunk : int;
  pl_sample : (int * int) option;
  pl_sym : Symmetry.t option;
  pl_total : int;
}

let plan ?(analysis = Threshold) ?jobs:_ ?(chunk = 1024) ?(prune = true)
    ?(max_input = 12) ?(max_configs = 60_000) ?sample ~n () =
  check_n "plan" n;
  let pair_list = pairs n in
  let num_outputs = 1 lsl n in
  let total =
    match sample with
    | None -> num_deterministic_protocols n
    | Some (count, _) ->
      if count < 0 || count > Sys.max_array_length then
        invalid_arg (Printf.sprintf "Busy_beaver.plan: sample count %d" count);
      count
  in
  let chunk = Stdlib.max 1 chunk in
  {
    pl_analysis = analysis;
    pl_n = n;
    pl_pair_list = pair_list;
    pl_num_outputs = num_outputs;
    pl_max_input = max_input;
    pl_max_configs = max_configs;
    pl_prune = prune;
    pl_chunk = chunk;
    pl_sample = sample;
    pl_sym = (if prune then Some (Symmetry.make n) else None);
    pl_total = total;
  }

let plan_chunks plan = Pool.num_chunks ~tasks:plan.pl_total ~chunk:plan.pl_chunk

let plan_chunk_range plan ci =
  if ci < 0 || ci >= plan_chunks plan then
    invalid_arg
      (Printf.sprintf "Busy_beaver.plan_chunk_range: chunk %d of %d" ci
         (plan_chunks plan));
  let lo = ci * plan.pl_chunk in
  (lo, lo + Stdlib.min plan.pl_chunk (plan.pl_total - lo))

(* Everything that shapes the chunk partition or the per-chunk content
   goes into the checkpoint fingerprint: a snapshot only resumes a
   scan that would recompute the exact same chunks, and a worker only
   serves a coordinator whose plan equals its own. The sample
   (count, seed) covers the RNG scheme — sampled code [i] depends on
   nothing else, and the partition on [chunk] alone. A snapshot whose
   configuration has any other field set, or a field this one lacks,
   never resumes: the hashes differ, and the mismatch names the
   fields. Only a non-census analysis adds a member, so no ledger
   resumes another analysis. *)
let plan_members plan =
  let open Obs.Json in
  [
    ("workload", String "bbsearch");
    ("n", Int plan.pl_n);
    ("max_input", Int plan.pl_max_input);
    ("max_configs", Int plan.pl_max_configs);
    ("prune", Bool plan.pl_prune);
    ("chunk", Int plan.pl_chunk);
    ( "sample",
      match plan.pl_sample with
      | None -> Null
      | Some (count, seed) -> List [ Int count; Int seed ] );
    ("total", Int plan.pl_total);
  ]
  @
  match plan.pl_analysis with
  | Threshold -> []
  | All_1 -> [ ("analysis", String "all_1") ]

let plan_config plan = Obs.Json.Obj (plan_members plan)

let plan_of_config j =
  let open Obs.Json.Decode in
  Result.map_error (( ^ ) "scan config: ")
    (let* () =
       match field "workload" string j with
       | Ok "bbsearch" -> Ok ()
       | _ -> Error "not a bbsearch configuration"
     in
     let* analysis = field_opt "analysis" string j in
     let* analysis =
       match analysis with
       | None -> Ok Threshold
       | Some "all_1" -> Ok All_1
       | Some a -> Error (Printf.sprintf "unknown analysis %S" a)
     in
     let* n = field "n" int j in
     if n < 1 || n > 4 then Error "1 <= n <= 4"
     else
       let* max_input = field "max_input" int j in
       let* max_configs = field "max_configs" int j in
       let* prune = field "prune" bool j in
       let* chunk = field "chunk" int j in
       let* sample = field_opt "sample" (pair int int) j in
       let* total = field "total" int j in
       (* the total must match the space the other fields describe; a
          plan computes its codes and ranges, so no count from outside
          bytes allocates anything here *)
       let space =
         match sample with
         | Some (count, _) -> count
         | None -> num_deterministic_protocols n
       in
       if total <> space then
         Error
           (Printf.sprintf "total %d does not match the space (%d)" total space)
       else
         match
           plan ~analysis ~chunk ~prune ~max_input ~max_configs ?sample ~n ()
         with
         | p -> (
           (* the replanned configuration must write every member it was
              sent, as sent: a member this build does not know (an older
              build's "eta_budget_s", a "schedule") or clamps (a "chunk"
              of 0) means a scan other than the one this plan runs. A
              [null] member reads as absent, as in [field_opt]. *)
           let written = plan_members p in
           let sent = match j with Obs.Json.Obj fs -> fs | _ -> [] in
           match
             List.filter_map
               (fun (k, v) ->
                 if v = Obs.Json.Null || List.assoc_opt k written = Some v
                 then None
                 else Some k)
               sent
           with
           | [] -> Ok p
           | ks ->
             Error
               (Printf.sprintf "members this build does not plan as sent: %s"
                  (String.concat ", " ks)))
         | exception Invalid_argument e -> Error e)

(* ------------------------------------------------------ chunk running *)

(* Live progress shared by the chunks of one in-process scan; worker
   processes of a distributed scan run without one (their coordinator
   aggregates progress instead). *)
type display = {
  d_total : int;
  d_scanned : int Atomic.t;
  d_threshold : int Atomic.t;
  d_best : int Atomic.t;
  d_progress : Obs.Progress.t;
}

(* An exploration a code needs was aborted: its verdict is unknown. *)
exception Unknown

let examine plan sums part display ~weight ~assignment ~output_bits =
  part.p_scanned <- part.p_scanned + weight;
  if Obs.Metrics.enabled () then Obs.Metrics.add m_scanned weight;
  (match display with
   | None -> ()
   | Some d ->
     ignore (Atomic.fetch_and_add d.d_scanned weight);
     Obs.Progress.tick d.d_progress (fun () ->
         Printf.sprintf "%d/%d protocols, %d threshold, best eta %d"
           (Atomic.get d.d_scanned) d.d_total
           (Atomic.get d.d_threshold)
           (Atomic.get d.d_best)));
  (* all-reject output maps short-circuit: no output-1 state, so no
     threshold and no All_1 *)
  if output_bits = 0 then part.p_reject_all <- part.p_reject_all + weight
  else begin
    let count eta =
      part.p_threshold <- part.p_threshold + weight;
      if Obs.Metrics.enabled () then Obs.Metrics.add m_threshold weight;
      (match display with
       | None -> ()
       | Some d -> ignore (Atomic.fetch_and_add d.d_threshold weight));
      Hashtbl.replace part.p_hist eta
        (weight + Option.value (Hashtbl.find_opt part.p_hist eta) ~default:0);
      if eta > part.p_best_eta then begin
        part.p_best_eta <- eta;
        part.p_best_code <- Some (assignment, output_bits);
        (match display with
         | None -> ()
         | Some d ->
           let rec raise_disp () =
             let cur = Atomic.get d.d_best in
             if eta > cur && not (Atomic.compare_and_set d.d_best cur eta) then
               raise_disp ()
           in
           raise_disp ());
        Obs.Trace.instant "bbsearch.new_best" ~cat:"bbsearch"
          ~args:
            [
              ("eta", string_of_int eta);
              ("protocol", code_name plan.pl_n ~assignment ~output_bits);
            ]
      end
    in
    let summary i =
      match Summaries.get sums ~assignment i with
      | Some s -> s
      | None -> raise Unknown
    in
    let inputs = Summaries.inputs sums in
    let constant = Summaries.constant sums ~assignment ~output_bits in
    (* the analysis is only this reading of the summaries: the threshold
       sweep of [Eta_search.find] over verdicts under this code's output
       map, or Section 4.1's least input from which All_1 is reachable,
       reported as [Eta i] (no such input: [Always_rejects]). A map
       constant [b] on the coverable states reads [b] on every input
       with no summary: reject-all, or threshold 2 and All_1 at 2. *)
    let read () =
      match plan.pl_analysis with
      | Threshold ->
        Eta_search.sweep inputs (fun i ->
            match constant with
            | Some b -> Fair_semantics.Decides b
            | None ->
              Fair_semantics.verdict_of_unions ~output:output_bits
                (summary i).Fair_semantics.bottoms)
      | All_1 ->
        List.find_opt
          (fun i ->
            match constant with
            | Some b -> b
            | None -> Section_4_1.reaches_all_1 ~output:output_bits (summary i))
          inputs
        |> Option.fold ~none:Eta_search.Always_rejects ~some:(fun i ->
               Eta_search.Eta i)
    in
    match read () with
    | Eta_search.Eta eta -> count eta
    | Eta_search.Always_accepts ->
      (* computes x >= i for every valid i up to the smallest input:
         record as threshold 2 (all populations have >= 2 agents) *)
      count 2
    | Eta_search.Always_rejects -> part.p_reject_all <- part.p_reject_all + weight
    | Eta_search.Not_threshold _ -> ()
    | exception Unknown ->
      (* the node budget tripped on an input this code needs: its
         verdict degrades to unknown, the scan itself keeps going *)
      part.p_aborted <- part.p_aborted + weight;
      Obs.Metrics.add m_aborted weight
  end

(* One chunk of the plan, from a fresh accumulator — the unit of work a
   pool domain or a remote worker process performs. A retried or
   re-leased chunk restarts from scratch by construction, so its counts
   can never double; its summary cache is its own, so chunk content
   (counters included) depends only on the plan and the index. *)
let run_chunk ?display plan ci =
  let part = fresh_partial () in
  let sums =
    Summaries.create ~max_configs:plan.pl_max_configs ~n:plan.pl_n
      ~max_input:plan.pl_max_input ()
  in
  let lo, hi = plan_chunk_range plan ci in
  for idx = lo to hi - 1 do
    match plan.pl_sample with
    | Some (_, seed) ->
      (* sampling examines every drawn code exactly once; with pruning
         on, its canonical orbit representative is verified instead —
         same threshold result, and duplicate-orbit draws then hit the
         same protocol *)
      let assignment, output_bits = sample_code ~n:plan.pl_n ~seed idx in
      let assignment, output_bits =
        match plan.pl_sym with
        | None -> (assignment, output_bits)
        | Some s -> Symmetry.canonical s ~assignment ~output_bits
      in
      examine plan sums part display ~weight:1 ~assignment ~output_bits
    | None ->
      let assignment = idx / plan.pl_num_outputs
      and output_bits = idx mod plan.pl_num_outputs in
      (match plan.pl_sym with
       | None -> examine plan sums part display ~weight:1 ~assignment ~output_bits
       | Some s ->
         (match Symmetry.canonical_weight s ~assignment ~output_bits with
          | Some weight ->
            examine plan sums part display ~weight ~assignment ~output_bits
          | None ->
            (* a smaller orbit member is (or will be) verified with
               this code's count folded into its weight *)
            Obs.Metrics.incr m_pruned))
  done;
  part

let scan_chunk plan ci = partial_to_json (run_chunk plan ci)

(* The only merge: folding the chunk accumulators left to right is the
   same fold the sequential scan performs over the full code space —
   for any contiguous partition *)
let result_of_chunks ?(interrupted = false) ?(task_errors = 0) plan chunks =
  if Array.length chunks <> plan_chunks plan then
    invalid_arg
      (Printf.sprintf "Busy_beaver.result_of_chunks: %d chunk slots, plan has %d"
         (Array.length chunks) (plan_chunks plan));
  let acc = fresh_partial () and completed = ref 0 in
  Array.iteri
    (fun i state ->
      match Option.map partial_of_json state with
      | None -> ()
      | Some (Error msg) ->
        invalid_arg
          (Printf.sprintf "Busy_beaver.result_of_chunks: chunk %d: %s" i msg)
      | Some (Ok part) ->
        incr completed;
        acc.p_scanned <- acc.p_scanned + part.p_scanned;
        acc.p_threshold <- acc.p_threshold + part.p_threshold;
        acc.p_reject_all <- acc.p_reject_all + part.p_reject_all;
        acc.p_aborted <- acc.p_aborted + part.p_aborted;
        if part.p_best_eta > acc.p_best_eta then begin
          acc.p_best_eta <- part.p_best_eta;
          acc.p_best_code <- part.p_best_code
        end;
        Hashtbl.iter
          (fun eta count ->
            Hashtbl.replace acc.p_hist eta
              (count + Option.value (Hashtbl.find_opt acc.p_hist eta) ~default:0))
          part.p_hist)
    chunks;
  {
    num_protocols = acc.p_scanned;
    num_threshold = acc.p_threshold;
    num_reject_all = acc.p_reject_all;
    num_aborted = acc.p_aborted;
    best_eta = acc.p_best_eta;
    best =
      Option.map
        (fun (assignment, output_bits) ->
          decode plan.pl_n ~pair_list:plan.pl_pair_list ~assignment ~output_bits)
        acc.p_best_code;
    histogram =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) acc.p_hist []
      |> List.sort Stdlib.compare;
    completed_chunks = !completed;
    total_chunks = plan_chunks plan;
    interrupted;
    task_errors;
  }

(* ------------------------------------------------------------- ledger *)

let with_ledger ?checkpoint ?every_chunks ?every_s ?(resume = false) plan f =
  let config = plan_config plan and total_chunks = plan_chunks plan in
  let ledger, resumed =
    match checkpoint with
    | None -> (Obs.Checkpoint.create ~config ~total_chunks, false)
    | Some path ->
      let ledger, resumed =
        Obs.Checkpoint.open_or_resume ~path ~resume ~config ~total_chunks
      in
      (* a state the final merge would refuse is refused now, before
         any work is spent on a ledger that could never finish *)
      (try ignore (result_of_chunks plan ledger.Obs.Checkpoint.state)
       with Invalid_argument msg ->
         invalid_arg (Printf.sprintf "checkpoint %s: %s" path msg));
      (ledger, resumed)
  in
  let w =
    Obs.Checkpoint.writer ?every_chunks ?every_s ?path:checkpoint ledger
  in
  (* the final snapshot must land even when [f] raises — that is the
     checkpoint a crash resumes from *)
  Fun.protect
    ~finally:(fun () ->
      try Obs.Checkpoint.flush w
      with Sys_error msg ->
        Printf.eprintf "bbsearch: checkpoint write failed: %s\n%!" msg)
    (fun () -> f ledger w ~resumed)

(* --------------------------------------------------------------- scan *)

(* The accumulator a domain has just finished, handed from the chunk,
   inside its [bbsearch.chunk] span, to [on_chunk_done], outside it,
   which records it in the ledger: snapshot writes stay out of chunk
   durations. *)
let finished : partial option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let scan ?analysis ?(jobs = 1) ?(chunk = 1024) ?(prune = true)
    ?(max_input = 12) ?(max_configs = 60_000) ?sample ?checkpoint
    ?(checkpoint_every_chunks = 64) ?(checkpoint_every_s = 30.0)
    ?(resume = false) ?should_stop ?(on_task_error = `Fail) ~n () =
  let plan = plan ?analysis ~chunk ~prune ~max_input ~max_configs ?sample ~n () in
  let total = plan.pl_total in
  with_ledger ?checkpoint ~every_chunks:checkpoint_every_chunks
    ~every_s:checkpoint_every_s ~resume plan
  @@ fun ledger w ~resumed:_ ->
  (* display-only tallies for the progress line, from the restored
     chunks on; the authoritative counts live in the ledger *)
  let restored = result_of_chunks plan ledger.Obs.Checkpoint.state in
  let display =
    {
      d_total = total;
      d_scanned = Atomic.make restored.num_protocols;
      d_threshold = Atomic.make restored.num_threshold;
      d_best = Atomic.make restored.best_eta;
      d_progress = Obs.Progress.create "bbsearch";
    }
  in
  let do_range ~lo ~hi:_ =
    (* a fresh accumulator per (re)run of the chunk, so a retried chunk
       can never double its counts *)
    Domain.DLS.set finished (Some (run_chunk ~display plan (lo / plan.pl_chunk)))
  in
  let on_chunk_done i =
    let part = Option.get (Domain.DLS.get finished) in
    Domain.DLS.set finished None;
    Obs.Checkpoint.note_done w i (partial_to_json part)
  in
  (* cancellation: a delivered SIGINT/SIGTERM (inside the binary's
     graceful region) or the caller's token stops further chunk claims *)
  let stop_requested () =
    Obs.Shutdown.requested ()
    || (match should_stop with Some f -> f () | None -> false)
  in
  let pool_stats =
    Obs.Trace.with_span "bbsearch.scan" ~cat:"bbsearch"
      ~args:[ ("states", string_of_int n); ("total", string_of_int total) ]
      (fun () ->
        Pool.run ~jobs ~chunk:plan.pl_chunk ~name:"bbsearch" ~on_task_error
          ~should_stop:stop_requested ~skip_chunk:(Obs.Checkpoint.is_done ledger)
          ~on_chunk_done ~tasks:total do_range)
  in
  let result =
    result_of_chunks ~interrupted:pool_stats.Pool.cancelled
      ~task_errors:pool_stats.Pool.task_errors plan
      ledger.Obs.Checkpoint.state
  in
  Obs.Progress.finish display.d_progress (fun () ->
      Printf.sprintf "%d protocols scanned, %d threshold, best eta %d"
        result.num_protocols result.num_threshold result.best_eta);
  result
