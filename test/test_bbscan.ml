(* Tests for the sharded busy-beaver scan: the symmetry group really is
   a symmetry of the verification problem (relabelled protocols have the
   same threshold), pruning changes nothing observable, and aggregates
   are byte-identical across every jobs/chunk setting — the same
   determinism contract test_ensemble checks for the Monte-Carlo
   engine. *)

let prop name ?(count = 50) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* scan_result equality; [best] is compared by protocol name, which
   encodes the exact code the scan picked *)
let result_eq (a : Busy_beaver.scan_result) (b : Busy_beaver.scan_result) =
  a.Busy_beaver.num_protocols = b.Busy_beaver.num_protocols
  && a.Busy_beaver.num_threshold = b.Busy_beaver.num_threshold
  && a.Busy_beaver.num_reject_all = b.Busy_beaver.num_reject_all
  && a.Busy_beaver.best_eta = b.Busy_beaver.best_eta
  && a.Busy_beaver.histogram = b.Busy_beaver.histogram
  && Option.map (fun p -> p.Population.name) a.Busy_beaver.best
     = Option.map (fun p -> p.Population.name) b.Busy_beaver.best

(* aggregate equality only: between pruned and unpruned scans the best
   protocol may be a different (isomorphic) member of the same orbit *)
let aggregates_eq (a : Busy_beaver.scan_result) (b : Busy_beaver.scan_result) =
  a.Busy_beaver.num_protocols = b.Busy_beaver.num_protocols
  && a.Busy_beaver.num_threshold = b.Busy_beaver.num_threshold
  && a.Busy_beaver.num_reject_all = b.Busy_beaver.num_reject_all
  && a.Busy_beaver.best_eta = b.Busy_beaver.best_eta
  && a.Busy_beaver.histogram = b.Busy_beaver.histogram

(* -- Symmetry: protocol relabelling is invisible to Eta_search ------------- *)

(* relabel the states of [p] by the permutation [sigma] (the input
   state moves too, so this is a protocol isomorphism) *)
let permute_protocol p sigma =
  let n = Population.num_states p in
  let states = Array.make n "" in
  Array.iteri (fun s name -> states.(sigma.(s)) <- name) p.Population.states;
  let output = Array.make n false in
  Array.iteri (fun s b -> output.(sigma.(s)) <- b) p.Population.output;
  Population.make
    ~name:(p.Population.name ^ "-perm")
    ~states
    ~transitions:
      (Array.to_list
         (Array.map
            (fun { Population.pre = a, b; post = a', b' } ->
              (sigma.(a), sigma.(b), sigma.(a'), sigma.(b')))
            p.Population.transitions))
    ~inputs:[ ("x", sigma.(p.Population.input_map.(0)) ) ]
    ~output ()

let nth_permutation n k =
  (* Lehmer decode of k into a permutation of 0..n-1 *)
  let avail = ref (List.init n Fun.id) in
  let k = ref k in
  Array.init n (fun i ->
      let remaining = n - i in
      let rec fact m = if m <= 1 then 1 else m * fact (m - 1) in
      let f = fact (remaining - 1) in
      let idx = !k / f mod remaining in
      k := !k mod f;
      let x = List.nth !avail idx in
      avail := List.filter (( <> ) x) !avail;
      x)

let eta_perm_invariance_prop =
  prop "Eta_search.find is invariant under state relabelling" ~count:30
    QCheck.(triple (int_range 0 46655) (int_range 1 7) (int_range 0 5))
    (fun (assignment, output_bits, pidx) ->
      let p = Busy_beaver.protocol_of_code ~n:3 ~assignment ~output_bits in
      let sigma = nth_permutation 3 pidx in
      let p' = permute_protocol p sigma in
      Eta_search.find p ~max_input:8 = Eta_search.find p' ~max_input:8)

(* -- Symmetry: group and orbit structure ----------------------------------- *)

let test_symmetry_order () =
  List.iter
    (fun (n, order) ->
      Alcotest.(check int)
        (Printf.sprintf "|Stab(0)| for n=%d" n)
        order
        (Busy_beaver.Symmetry.order (Busy_beaver.Symmetry.make n)))
    [ (1, 1); (2, 1); (3, 2); (4, 6) ]

(* summing the orbit sizes over the canonical codes tiles the full code
   space — this is exactly why orbit-weighted counts are exact *)
let test_orbit_weights_partition () =
  let sym = Busy_beaver.Symmetry.make 3 in
  let total = ref 0 in
  let canonical = ref 0 in
  for assignment = 0 to 46655 do
    for output_bits = 0 to 7 do
      match Busy_beaver.Symmetry.canonical_weight sym ~assignment ~output_bits with
      | Some w ->
        total := !total + w;
        incr canonical
      | None -> ()
    done
  done;
  Alcotest.(check int) "weights tile the space"
    (Busy_beaver.num_deterministic_protocols 3)
    !total;
  Alcotest.(check bool) "pruning is real" true
    (!canonical < Busy_beaver.num_deterministic_protocols 3)

let orbit_consistency_prop =
  prop "orbit members agree on the canonical code" ~count:100
    QCheck.(pair (int_range 0 46655) (int_range 0 7))
    (fun (assignment, output_bits) ->
      let sym = Busy_beaver.Symmetry.make 3 in
      let canon = Busy_beaver.Symmetry.canonical sym ~assignment ~output_bits in
      let orbit = Busy_beaver.Symmetry.orbit sym ~assignment ~output_bits in
      List.mem canon orbit
      && List.for_all (fun c -> canon <= c) orbit
      && List.for_all
           (fun (a, o) ->
             Busy_beaver.Symmetry.canonical sym ~assignment:a ~output_bits:o
             = canon)
           orbit
      && (Busy_beaver.Symmetry.canonical_weight sym ~assignment ~output_bits
          <> None)
         = ((assignment, output_bits) = canon))

(* -- Pruning changes no aggregate ------------------------------------------ *)

let test_prune_exact_n2 () =
  let pruned = Busy_beaver.scan ~n:2 ~max_input:10 ~prune:true () in
  let unpruned = Busy_beaver.scan ~n:2 ~max_input:10 ~prune:false () in
  Alcotest.(check bool) "full n=2 sweep identical" true
    (aggregates_eq pruned unpruned);
  Alcotest.(check int) "counts the whole space" 108
    pruned.Busy_beaver.num_protocols

(* under both analyses: a relabelling that fixes the input state keeps
   a code's threshold and its least input reaching All_1 *)
let test_prune_exact_n3_sampled () =
  List.iter
    (fun (label, analysis) ->
      let pruned =
        Busy_beaver.scan ~analysis ~n:3 ~max_input:8 ~sample:(400, 11)
          ~prune:true ()
      in
      let unpruned =
        Busy_beaver.scan ~analysis ~n:3 ~max_input:8 ~sample:(400, 11)
          ~prune:false ()
      in
      Alcotest.(check bool) (label ^ ": sampled n=3 aggregates identical") true
        (aggregates_eq pruned unpruned))
    [ ("threshold", Busy_beaver.Threshold); ("all_1", Busy_beaver.All_1) ]

(* -- Determinism across the domain pool ------------------------------------ *)

let test_jobs_invariance_exhaustive () =
  let reference = Busy_beaver.scan ~n:2 ~max_input:10 ~jobs:1 () in
  List.iter
    (fun (jobs, chunk) ->
      let r = Busy_beaver.scan ~n:2 ~max_input:10 ~jobs ~chunk () in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d chunk=%d identical" jobs chunk)
        true (result_eq reference r))
    [ (2, 1024); (4, 7); (3, 1); (1, 5) ]

let test_jobs_invariance_sampled () =
  let reference =
    Busy_beaver.scan ~n:3 ~max_input:8 ~sample:(300, 5) ~jobs:1 ()
  in
  List.iter
    (fun (jobs, chunk) ->
      let r =
        Busy_beaver.scan ~n:3 ~max_input:8 ~sample:(300, 5) ~jobs ~chunk ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d chunk=%d identical" jobs chunk)
        true (result_eq reference r))
    [ (2, 64); (4, 17) ]

(* the one partition is a pure function of (tasks, chunk): the ranges
   [Pool.run] hands out, [Pool.num_chunks] of them, are contiguous and
   cover the range exactly, range [ci] starting at [ci * chunk] and
   holding at most [chunk] indices *)
let boundaries_prop =
  prop "boundaries cut the range into chunk-aligned slots" ~count:200
    QCheck.(pair (int_range 0 5000) (int_range 1 512))
    (fun (tasks, chunk) ->
      let lock = Mutex.create () and ranges = ref [] in
      ignore
        (Pool.run ~jobs:2 ~chunk ~tasks (fun ~lo ~hi ->
             Mutex.protect lock (fun () -> ranges := (lo, hi) :: !ranges)));
      let ranges = List.sort Stdlib.compare !ranges in
      let ok, covered =
        List.mapi (fun ci b -> (ci, b)) ranges
        |> List.fold_left
             (fun (ok, expect) (ci, (lo, hi)) ->
               ( ok && lo = expect && lo = ci * chunk && hi > lo
                 && hi - lo <= chunk,
                 hi ))
             (true, 0)
      in
      ok && covered = tasks
      && List.length ranges = Pool.num_chunks ~tasks ~chunk)

(* a plan computes its chunk ranges and stores none: a one-code
   chunking of n = 3 (373,248 chunks) allocates next to nothing, and an
   exhaustive n = 4 configuration from outside bytes decodes to its
   156,250,000 chunks without allocating them *)
let test_plan_ranges_computed () =
  let p, allocated =
    Allocation.measure (fun () -> Busy_beaver.plan ~n:3 ~chunk:1 ())
  in
  Alcotest.(check int) "one chunk per code" 373_248 (Busy_beaver.plan_chunks p);
  Alcotest.(check bool)
    (Printf.sprintf "plan allocates under 1 MB (%.0f bytes)" allocated)
    true (allocated < 1e6);
  let config =
    Busy_beaver.plan_config (Busy_beaver.plan ~n:3 ())
    |> (function Obs.Json.Obj fields -> fields | _ -> assert false)
    |> List.map (function
         | "n", _ -> ("n", Obs.Json.Int 4)
         | "total", _ -> ("total", Obs.Json.Int 160_000_000_000)
         | field -> field)
  in
  match Busy_beaver.plan_of_config (Obs.Json.Obj config) with
  | Error e -> Alcotest.fail e
  | Ok p ->
    let chunks = Busy_beaver.plan_chunks p in
    Alcotest.(check int) "n=4 chunks" 156_250_000 chunks;
    Alcotest.(check (pair int int)) "last chunk"
      (159_999_998_976, 160_000_000_000)
      (Busy_beaver.plan_chunk_range p (chunks - 1))

(* the fingerprint ledgers and Welcome messages carry, byte for byte:
   it moves only with what a chunk accumulator depends on, so a ledger
   written by an older build resumes, and workers of either build
   serve the other's coordinator *)
let test_plan_fingerprint () =
  let config ?analysis () =
    Obs.Json.to_string
      (Busy_beaver.plan_config (Busy_beaver.plan ?analysis ~n:3 ()))
  in
  let census =
    {|{"workload":"bbsearch","n":3,"max_input":12,"max_configs":60000,"prune":true,"chunk":1024,"sample":null,"total":373248|}
  in
  Alcotest.(check string) "census" (census ^ "}") (config ());
  Alcotest.(check string) "All_1" (census ^ {|,"analysis":"all_1"}|})
    (config ~analysis:Busy_beaver.All_1 ())

(* the sampled stream is per-index, so it is also jobs-independent when
   pruning rewrites each draw to its canonical representative *)
let test_jobs_invariance_sampled_unpruned () =
  let a =
    Busy_beaver.scan ~n:3 ~max_input:8 ~sample:(200, 9) ~prune:false ~jobs:1 ()
  in
  let b =
    Busy_beaver.scan ~n:3 ~max_input:8 ~sample:(200, 9) ~prune:false ~jobs:4
      ~chunk:23 ()
  in
  Alcotest.(check bool) "unpruned sampled identical" true (result_eq a b)

(* -- Pool ------------------------------------------------------------------- *)

let test_pool_covers_every_index () =
  List.iter
    (fun (jobs, chunk) ->
      let tasks = 101 in
      let hits = Array.make tasks 0 in
      let stats =
        Pool.run ~jobs ~chunk ~tasks (fun ~lo ~hi ->
            for i = lo to hi - 1 do
              hits.(i) <- hits.(i) + 1
            done)
      in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d chunk=%d: each index once" jobs chunk)
        true
        (Array.for_all (( = ) 1) hits);
      let num_chunks = (tasks + chunk - 1) / chunk in
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d chunk=%d: chunk tally" jobs chunk)
        num_chunks
        (Array.fold_left ( + ) 0 stats.Pool.chunks))
    [ (1, 1); (2, 7); (4, 16); (8, 1024) ]

let test_pool_clamps_jobs () =
  let stats = Pool.run ~jobs:16 ~chunk:1 ~tasks:3 (fun ~lo:_ ~hi:_ -> ()) in
  Alcotest.(check int) "never more domains than tasks" 3 stats.Pool.jobs;
  let stats = Pool.run ~jobs:0 ~chunk:1 ~tasks:3 (fun ~lo:_ ~hi:_ -> ()) in
  Alcotest.(check int) "at least one domain" 1 stats.Pool.jobs

(* [run_rounds] over random round sizes, empty rounds included: the
   caller's [next] labels each round, the tasks read the label it set,
   and every (round, index) pair must be visited exactly once with the
   fixed per-round chunk tally, at every jobs value. *)
let ceil_div a b = (a + b - 1) / b

let run_rounds_covers_prop =
  prop "run_rounds visits every (round, index) exactly once" ~count:60
    QCheck.(pair (small_list (int_range 0 40)) (int_range 1 8))
    (fun (sizes, chunk) ->
      let sizes = Array.of_list sizes in
      List.for_all
        (fun jobs ->
          let hits = Array.map (fun n -> Array.make n 0) sizes in
          let round = ref (-1) in
          let next () =
            incr round;
            if !round < Array.length sizes then Some sizes.(!round) else None
          in
          let stats =
            Pool.run_rounds ~jobs ~chunk ~next (fun ~lo ~hi ->
                let h = hits.(!round) in
                for i = lo to hi - 1 do
                  h.(i) <- h.(i) + 1
                done)
          in
          Array.for_all (Array.for_all (( = ) 1)) hits
          && Array.fold_left ( + ) 0 stats.Pool.chunks
             = Array.fold_left (fun acc n -> acc + ceil_div n chunk) 0 sizes)
        [ 1; 2; 4 ])

exception Round_boom of int * int

(* A task raising in round r, chunk k re-raises as that (r, k) at every
   jobs value, and no later round opens: [next] is not called again. *)
let run_rounds_failure_prop =
  prop "run_rounds re-raises the failing (round, chunk) at every jobs"
    ~count:60
    QCheck.(
      quad (list_of_size Gen.(int_range 1 6) (int_range 1 40)) (int_range 1 8)
        small_nat small_nat)
    (fun (sizes, chunk, r, k) ->
      let sizes = Array.of_list sizes in
      let r = r mod Array.length sizes in
      let k = k mod ceil_div sizes.(r) chunk in
      List.for_all
        (fun jobs ->
          let round = ref (-1) in
          let next () =
            incr round;
            if !round < Array.length sizes then Some sizes.(!round) else None
          in
          match
            Pool.run_rounds ~jobs ~chunk ~next (fun ~lo ~hi:_ ->
                if !round = r && lo / chunk = k then
                  raise (Round_boom (r, lo / chunk)))
          with
          | _ -> false
          | exception Round_boom (r', k') -> r' = r && k' = k && !round = r)
        [ 1; 2; 4 ])

exception Next_boom of int

(* An exception escaping [next] surfaces only after every domain is
   joined: 100 iterations x 3 persistent helpers would exhaust the
   runtime's domain limit if any were left waiting at the barrier. *)
let test_run_rounds_next_raise_joins () =
  for _ = 1 to 100 do
    let round = ref 0 in
    match
      Pool.run_rounds ~jobs:4 ~chunk:1
        ~next:(fun () ->
          incr round;
          if !round > 3 then raise (Next_boom !round) else Some 8)
        (fun ~lo:_ ~hi:_ -> ())
    with
    | _ -> Alcotest.fail "next's exception was swallowed"
    | exception Next_boom 4 -> ()
  done

(* -- Pool fault isolation ---------------------------------------------------- *)

exception Boom of int

(* Under [`Fail] the poisoned chunk's exception must re-raise out of
   [run] with every domain joined first. 200 iterations x 4 spawned
   workers would exhaust the runtime's domain limit (~128 concurrent)
   within a few iterations if any join leaked, so merely finishing this
   loop is the leak assertion. *)
let test_pool_fail_joins_all_domains () =
  for _ = 1 to 200 do
    match
      Pool.run ~jobs:4 ~chunk:4 ~tasks:64 (fun ~lo ~hi:_ ->
          if lo / 4 = 7 then raise (Boom 7))
    with
    | _ -> Alcotest.fail "poisoned chunk did not raise"
    | exception Boom 7 -> ()
  done

let test_pool_fail_is_deterministic () =
  (* a single poisoned chunk is re-raised identically on every run and
     every jobs setting — first-failure-wins has only one candidate *)
  List.iter
    (fun jobs ->
      match
        Pool.run ~jobs ~chunk:8 ~tasks:80 (fun ~lo ~hi:_ ->
            if lo / 8 = 5 then raise (Boom (lo / 8)))
      with
      | _ -> Alcotest.fail "poisoned chunk did not raise"
      | exception Boom i ->
        Alcotest.(check int)
          (Printf.sprintf "jobs=%d re-raises the poisoned chunk" jobs)
          5 i)
    [ 1; 2; 4 ]

(* Skip/Retry: the batch completes, the failures are reported, and the
   surviving per-task results plus the failure accounting are identical
   across every jobs setting. The task body is deterministic, so a
   retried chunk fails on every attempt and each attempt counts. *)
let pool_fault_determinism_prop =
  prop "Skip/Retry aggregates are jobs-invariant under injected faults"
    ~count:40
    QCheck.(
      quad (int_range 1 150) (int_range 1 16) (int_range 0 149)
        (option (int_range 0 2)))
    (fun (tasks, chunk, poison, retries) ->
      let poison = poison mod tasks in
      let policy =
        match retries with None -> `Skip | Some n -> `Retry n
      in
      let run_with jobs =
        let acc = Array.make tasks 0 in
        let stats =
          Pool.run ~jobs ~chunk ~on_task_error:policy ~tasks (fun ~lo ~hi ->
              for i = lo to hi - 1 do
                acc.(i) <- (i * i) + 1
              done;
              if lo <= poison && poison < hi then raise (Boom poison))
        in
        let failed_chunks =
          List.map (fun f -> f.Pool.chunk_index) stats.Pool.failures
        in
        (acc, stats.Pool.task_errors, failed_chunks, stats.Pool.cancelled)
      in
      let reference = run_with 1 in
      let attempts = match policy with `Skip -> 1 | `Retry n -> 1 + n in
      let _, task_errors, failed_chunks, cancelled = reference in
      task_errors = attempts
      && failed_chunks = [ poison / chunk ]
      && (not cancelled)
      && List.for_all (fun jobs -> run_with jobs = reference) [ 2; 4 ])

exception Cb of int

(* A callback raising in a helper domain re-raises as itself, not
   wrapped in [Fun.Finally_raised], after every domain is joined. The
   caller's own chunk spins until a helper has raised, so the raise
   always lands outside the caller's domain; the 100 iterations x 3
   helpers per callback are the leak assertion, as above. *)
let test_pool_callback_exception_identity () =
  let caller = Domain.self () in
  List.iter
    (fun which ->
      for _ = 1 to 100 do
        let fired = Atomic.make false in
        let raise_outside ci =
          if Domain.self () <> caller then begin
            Atomic.set fired true;
            raise (Cb ci)
          end
        in
        let should_stop, skip_chunk, on_chunk_done =
          match which with
          | `Should_stop ->
            (Some (fun () -> raise_outside (-1); false), None, None)
          | `Skip_chunk ->
            (None, Some (fun ci -> raise_outside ci; false), None)
          | `On_chunk_done -> (None, None, Some raise_outside)
        in
        match
          Pool.run ~jobs:4 ~chunk:1 ~tasks:64 ?should_stop ?skip_chunk
            ?on_chunk_done (fun ~lo:_ ~hi:_ ->
              if Domain.self () = caller then
                while not (Atomic.get fired) do
                  Domain.cpu_relax ()
                done)
        with
        | _ -> Alcotest.fail "the helper's callback exception was swallowed"
        | exception Cb _ -> ()
      done)
    [ `Should_stop; `Skip_chunk; `On_chunk_done ]

let test_pool_should_stop_cancels () =
  let claimed = Atomic.make 0 in
  let stats =
    Pool.run ~jobs:1 ~chunk:1 ~tasks:100
      ~should_stop:(fun () -> Atomic.get claimed >= 5)
      (fun ~lo:_ ~hi:_ -> Atomic.incr claimed)
  in
  Alcotest.(check bool) "cancelled flag set" true stats.Pool.cancelled;
  Alcotest.(check bool) "stopped early"
    true
    (Atomic.get claimed < 100)

(* -- Assignment summaries: one exploration serves every output map ------ *)

(* Code (a, o)'s verdicts read from a's summaries, through the same
   sweep the scan runs; [None] when an exploration aborted. *)
let summary_result sums ~assignment ~output_bits =
  match
    Eta_search.sweep (Busy_beaver.Summaries.inputs sums) (fun i ->
        match Busy_beaver.Summaries.get sums ~assignment i with
        | Some s ->
          Fair_semantics.verdict_of_unions ~output:output_bits
            s.Fair_semantics.bottoms
        | None -> raise Exit)
  with
  | r -> Some r
  | exception Exit -> None

(* Every output map of one assignment against the per-code references:
   Eta_search.find's result, and on every input the verdict of the
   multiset oracle, which shares no code with the support rule (o = 0
   and o = all included, though the scan itself never reads o = 0). *)
let assignment_agrees ~n sums assignment =
  List.for_all
    (fun output_bits ->
      let p = Busy_beaver.protocol_of_code ~n ~assignment ~output_bits in
      summary_result sums ~assignment ~output_bits
      = Some (Eta_search.find p ~max_input:12)
      && List.for_all
           (fun i ->
             match Busy_beaver.Summaries.get sums ~assignment i with
             | Some s ->
               Fair_semantics.verdict_of_unions ~output:output_bits
                 s.Fair_semantics.bottoms
               = Verdict_oracle.verdict p [| i |]
             | None -> false)
           (Busy_beaver.Summaries.inputs sums))
    (List.init (1 lsl n) Fun.id)

let test_summaries_match_find_small () =
  List.iter
    (fun n ->
      let sums = Busy_beaver.Summaries.create ~n ~max_input:12 () in
      for assignment = 0 to Busy_beaver.num_assignments n - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "n=%d assignment %d" n assignment)
          true
          (assignment_agrees ~n sums assignment)
      done)
    [ 1; 2 ]

let summaries_match_find_prop ~n ~count =
  prop
    (Printf.sprintf "n=%d: summary verdicts = Eta_search.find" n)
    ~count
    QCheck.(int_range 0 (Busy_beaver.num_assignments n - 1))
    (fun assignment ->
      assignment_agrees ~n
        (Busy_beaver.Summaries.create ~n ~max_input:12 ())
        assignment)

(* The plan cuts the code space by index, so a chunk boundary can fall
   inside an assignment's output maps: both chunks then summarise it,
   and the aggregate must not notice. n = 2 has 4 output maps per
   assignment, so chunks of 3 split most assignments. *)
let test_split_assignments () =
  let m_summaries = Obs.Metrics.counter "bbsearch.summaries" in
  let m_explorations = Obs.Metrics.counter "configgraph.explorations" in
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  let counted f =
    let s0 = Obs.Metrics.value m_summaries in
    let e0 = Obs.Metrics.value m_explorations in
    let r = f () in
    (r, Obs.Metrics.value m_summaries - s0, Obs.Metrics.value m_explorations - e0)
  in
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled was)
    (fun () ->
      let reference, s_ref, e_ref = counted (fun () -> Busy_beaver.scan ~n:2 ()) in
      Alcotest.(check int) "one exploration per summary" s_ref e_ref;
      List.iter
        (fun (label, run) ->
          let r, s, e = counted run in
          Alcotest.(check bool) (label ^ ": identical result") true
            (result_eq reference r);
          Alcotest.(check int) (label ^ ": one exploration per summary") s e;
          Alcotest.(check bool) (label ^ ": split assignments re-summarised")
            true (s > s_ref))
        [
          ("chunk 3", fun () -> Busy_beaver.scan ~n:2 ~chunk:3 ());
        ])

(* A one-configuration budget admits only graphs whose initial
   configuration is a sink, i.e. assignments with (0, 0) -> (0, 0): a
   sixth of the codes, deciding every input by state 0's output. The
   other codes abort unless their output map is all 0 (reject-all
   without exploring). The abort counter weighs each canonical code by
   its orbit, like num_aborted, and a node budget, unlike a wall-clock
   one, aborts the same codes at any jobs. *)
let test_node_budget_aborts () =
  let m_aborted = Obs.Metrics.counter "bbsearch.config_budget_aborts" in
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  let run jobs =
    let before = Obs.Metrics.value m_aborted in
    let r = Busy_beaver.scan ~n:3 ~max_configs:1 ~jobs () in
    (r, Obs.Metrics.value m_aborted - before)
  in
  let (r, counted), (r2, counted2) =
    Fun.protect
      ~finally:(fun () -> Obs.Metrics.set_enabled was)
      (fun () ->
        let one = run 1 in
        (one, run 2))
  in
  Alcotest.(check int) "aborted" 272_160 r.Busy_beaver.num_aborted;
  Alcotest.(check int) "counter = num_aborted" r.Busy_beaver.num_aborted
    counted;
  Alcotest.(check int) "reject-all" 69_984 r.Busy_beaver.num_reject_all;
  Alcotest.(check int) "threshold (eta = 2)" 31_104 r.Busy_beaver.num_threshold;
  Alcotest.(check (list (pair int int))) "histogram" [ (2, 31_104) ]
    r.Busy_beaver.histogram;
  Alcotest.(check bool) "jobs 2: identical result" true (result_eq r r2);
  Alcotest.(check int) "jobs 2: aborted" r.Busy_beaver.num_aborted
    r2.Busy_beaver.num_aborted;
  Alcotest.(check int) "jobs 2: counter = num_aborted"
    r2.Busy_beaver.num_aborted counted2

(* -- Closure-constant output maps: decided without a graph -------------- *)

(* A map constant [b] on the assignment's coverable states is read as
   [Decides b] on every input, so the scan records it as reject-all
   ([false]) or threshold 2 and All_1 at input 2 ([true]). The explored
   references on the decoded protocol must say the same. *)
let constant_agrees ~n ~assignment ~output_bits b =
  let p = Busy_beaver.protocol_of_code ~n ~assignment ~output_bits in
  Eta_search.find p ~max_input:12
  = (if b then Eta_search.Always_accepts else Eta_search.Always_rejects)
  && Section_4_1.min_accepting_input p ~max_input:12
     = if b then Some 2 else None

(* every canonical n <= 3 code the rule decides (o = 0 excluded: the
   scan decides it before asking), with the orbit-weighted count of
   each kind *)
let test_constant_maps_exhaustive () =
  List.iter
    (fun (n, rejects, accepts) ->
      let sym = Busy_beaver.Symmetry.make n in
      let sums = Busy_beaver.Summaries.create ~n ~max_input:12 () in
      let weights = [| 0; 0 |] in
      for assignment = 0 to Busy_beaver.num_assignments n - 1 do
        for output_bits = 1 to (1 lsl n) - 1 do
          match
            Busy_beaver.Symmetry.canonical_weight sym ~assignment ~output_bits
          with
          | None -> ()
          | Some weight -> (
            match
              Busy_beaver.Summaries.constant sums ~assignment ~output_bits
            with
            | None -> ()
            | Some b ->
              let k = Bool.to_int b in
              weights.(k) <- weights.(k) + weight;
              if not (constant_agrees ~n ~assignment ~output_bits b) then
                Alcotest.failf "bb-%d-%d-%d: constant %b disagrees" n
                  assignment output_bits b)
        done
      done;
      Alcotest.(check (pair int int))
        (Printf.sprintf "n=%d: protocols decided reject-all, accept-all" n)
        (rejects, accepts)
        (weights.(0), weights.(1)))
    [ (1, 0, 1); (2, 9, 36); (3, 31_104, 77_760) ]

(* n = 4: a random assignment, with a random map, one containing its
   coverable states, or one missing them all *)
let constant_maps_prop =
  prop "n=4: constant maps = Eta_search.find, min_accepting_input" ~count:40
    QCheck.(
      triple
        (int_range 0 (Busy_beaver.num_assignments 4 - 1))
        (int_range 0 15) (int_range 0 2))
    (fun (assignment, bits, kind) ->
      let closure =
        Busy_beaver.protocol_of_code ~n:4 ~assignment ~output_bits:0
        |> Transform.coverable_states
        |> Array.to_list
        |> List.mapi (fun s c -> if c then 1 lsl s else 0)
        |> List.fold_left ( lor ) 0
      in
      let output_bits =
        match kind with
        | 0 -> bits
        | 1 -> bits lor closure
        | _ -> bits land lnot closure
      in
      let expected =
        if output_bits land closure = 0 then Some false
        else if closure land lnot output_bits = 0 then Some true
        else None
      in
      let sums = Busy_beaver.Summaries.create ~n:4 ~max_input:12 () in
      Busy_beaver.Summaries.constant sums ~assignment ~output_bits = expected
      &&
      match expected with
      | None -> true
      | Some b -> constant_agrees ~n:4 ~assignment ~output_bits b)

(* The rule needs a budget of C(12 + 2, 2) = 91 nodes at n = 3, the
   configurations of 12 agents: there no graph can abort, so the scan
   equals the default one. One node less, nothing is decided without a
   graph, and the scan is the explored one, aborts included (pinned
   from the scan before the rule). *)
let test_constant_budget_guard () =
  let m_summaries = Obs.Metrics.counter "bbsearch.summaries" in
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  let counted f =
    let before = Obs.Metrics.value m_summaries in
    let r = f () in
    (r, Obs.Metrics.value m_summaries - before)
  in
  let (reference, s_ref), (at_91, s_91), at_90 =
    Fun.protect
      ~finally:(fun () -> Obs.Metrics.set_enabled was)
      (fun () ->
        let reference = counted (fun () -> Busy_beaver.scan ~n:3 ()) in
        let at_91 =
          counted (fun () -> Busy_beaver.scan ~n:3 ~max_configs:91 ())
        in
        (reference, at_91, Busy_beaver.scan ~n:3 ~max_configs:90 ()))
  in
  Alcotest.(check int) "default: summaries" 62_958 s_ref;
  Alcotest.(check bool) "91: default result" true (result_eq reference at_91);
  Alcotest.(check int) "91: no abort" 0 at_91.Busy_beaver.num_aborted;
  Alcotest.(check int) "91: summaries" s_ref s_91;
  Alcotest.(check (list int)) "90: explored result"
    [ 373_248; 82_306; 89_041; 12_565; 3 ]
    Busy_beaver.
      [
        at_90.num_protocols; at_90.num_threshold; at_90.num_reject_all;
        at_90.num_aborted; at_90.best_eta;
      ];
  Alcotest.(check (list (pair int int))) "90: histogram"
    [ (2, 82_188); (3, 118) ]
    at_90.Busy_beaver.histogram;
  Alcotest.(check (option string)) "90: best" (Some "bb-3-2003-2")
    (Option.map (fun p -> p.Population.name) at_90.Busy_beaver.best)

(* -- Checkpoint/resume: kill at a random chunk, resume, compare ------------- *)

let with_temp_checkpoint f =
  let path = Filename.temp_file "bbscan" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let checkpoint_resume_prop =
  prop "interrupted scan resumes to the uninterrupted result" ~count:8
    QCheck.(pair (int_range 1 26) (int_range 1 4))
    (fun (kill_after, jobs) ->
      with_temp_checkpoint (fun path ->
          let reference = Busy_beaver.scan ~n:2 ~max_input:8 ~chunk:4 () in
          (* first run: the cancellation token fires after [kill_after]
             polls (one poll per chunk claim; the n=2 scan has 27 chunks
             at chunk=4), snapshotting every completed chunk *)
          let polls = Atomic.make 0 in
          let interrupted =
            Busy_beaver.scan ~n:2 ~max_input:8 ~chunk:4 ~jobs
              ~checkpoint:path ~checkpoint_every_chunks:1
              ~should_stop:(fun () ->
                Atomic.fetch_and_add polls 1 >= kill_after)
              ()
          in
          let resumed =
            Busy_beaver.scan ~n:2 ~max_input:8 ~chunk:4 ~jobs:1
              ~checkpoint:path ~resume:true ()
          in
          (* whether the first run was truly cut short or drained before
             the token was polled, the resumed result must equal the
             uninterrupted reference byte for byte *)
          interrupted.Busy_beaver.total_chunks = 27
          && result_eq resumed reference
          && resumed.Busy_beaver.completed_chunks
             = resumed.Busy_beaver.total_chunks
          && not resumed.Busy_beaver.interrupted))

let () =
  Alcotest.run "bbscan"
    [
      ( "symmetry",
        [
          Alcotest.test_case "group orders" `Quick test_symmetry_order;
          Alcotest.test_case "orbit weights partition" `Slow
            test_orbit_weights_partition;
          orbit_consistency_prop;
          eta_perm_invariance_prop;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "exact on full n=2" `Quick test_prune_exact_n2;
          Alcotest.test_case "exact on sampled n=3" `Quick
            test_prune_exact_n3_sampled;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "exhaustive scan" `Quick
            test_jobs_invariance_exhaustive;
          Alcotest.test_case "sampled scan" `Quick test_jobs_invariance_sampled;
          Alcotest.test_case "sampled scan, no pruning" `Quick
            test_jobs_invariance_sampled_unpruned;
          boundaries_prop;
          Alcotest.test_case "plan ranges are computed" `Quick
            test_plan_ranges_computed;
          Alcotest.test_case "plan fingerprint pinned" `Quick
            test_plan_fingerprint;
        ] );
      ( "pool",
        [
          Alcotest.test_case "covers every index" `Quick
            test_pool_covers_every_index;
          Alcotest.test_case "clamps jobs" `Quick test_pool_clamps_jobs;
          run_rounds_covers_prop;
          run_rounds_failure_prop;
        ] );
      ( "faults",
        [
          Alcotest.test_case "Fail joins all domains (leak stress)" `Quick
            test_pool_fail_joins_all_domains;
          Alcotest.test_case "Fail re-raise is deterministic" `Quick
            test_pool_fail_is_deterministic;
          pool_fault_determinism_prop;
          Alcotest.test_case "should_stop cancels" `Quick
            test_pool_should_stop_cancels;
          Alcotest.test_case "callback exceptions keep their identity" `Quick
            test_pool_callback_exception_identity;
          Alcotest.test_case "run_rounds joins all domains when next raises"
            `Quick test_run_rounds_next_raise_joins;
        ] );
      ( "summaries",
        [
          Alcotest.test_case "verdicts = Eta_search.find (n <= 2)" `Quick
            test_summaries_match_find_small;
          summaries_match_find_prop ~n:3 ~count:100;
          summaries_match_find_prop ~n:4 ~count:15;
          Alcotest.test_case "assignments split across chunks" `Quick
            test_split_assignments;
          Alcotest.test_case "node budget aborts the same codes at any jobs"
            `Quick test_node_budget_aborts;
          Alcotest.test_case "constant maps = explored references (n <= 3)"
            `Slow test_constant_maps_exhaustive;
          constant_maps_prop;
          Alcotest.test_case "constant maps wait for a 91-node budget" `Quick
            test_constant_budget_guard;
        ] );
      ("checkpoint", [ checkpoint_resume_prop ]);
    ]
