(* The differential gate for the parallel verification paths: the
   backward fixpoint, the Hilbert completion and the lazy SCC
   exploration must be bit-for-bit indistinguishable from their
   sequential reference versions — same bases, same verdicts, same
   counters, same budget-exceeded payloads — for every jobs setting.
   Counters are the oracle: wall-clock is machine-dependent,
   the work done is not. *)

let prop name ?(count = 60) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let random_protocol ~d ~seed =
  Protocol_gen.generate
    ~config:{ Protocol_gen.default with Protocol_gen.num_states = d }
    ~seed ()

let corpus_dir () =
  let candidates =
    [ "../protocols"; "protocols"; "../../protocols"; "../../../protocols" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> Alcotest.fail "protocols/ corpus not found"

let load_corpus name =
  match Protocol_syntax.parse_file (Filename.concat (corpus_dir ()) name) with
  | Ok p -> Population.complete p
  | Error e -> Alcotest.failf "%s: %s" name e

(* The jobs matrix of the differential harness. jobs beyond the core
   count is deliberate: oversubscription must not change results
   either. flock8 and flock-succinct-3 have rounds of 9 backward and 27
   Hilbert chunks, so every jobs value meets a round with more chunks
   than domains. *)
let jobs_matrix = [ 1; 2; 4; 8 ]

let counter_of snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Metrics.Counter n) -> n
  | _ -> 0

let with_metrics f =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) f

(* Counters attributed to a single call, isolated by snapshot diff. *)
let counters_during names f =
  let before = Obs.Metrics.snapshot () in
  let r = f () in
  let d = Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot ()) in
  (r, List.map (fun n -> (n, counter_of d n)) names)

(* -- stable sets: parallel backward fixpoint ------------------------------ *)

let analyses_equal a b =
  Downset.equal a.Stable_sets.stable0 b.Stable_sets.stable0
  && Downset.equal a.Stable_sets.stable1 b.Stable_sets.stable1
  && Upset.equal a.Stable_sets.unstable0 b.Stable_sets.unstable0
  && Upset.equal a.Stable_sets.unstable1 b.Stable_sets.unstable1

let backward_counters = [ "backward.candidates"; "backward.added"; "backward.generations" ]

let test_backward_matrix () =
  with_metrics (fun () ->
      let protocols =
        List.map (fun f -> (f, load_corpus f))
          [ "flock8.pp"; "majority.pp"; "parity.pp"; "exists_pair.pp";
            "broken_flock.pp" ]
        @ [ ("flock-succinct-3", Flock.succinct 3);
            ("threshold-binary-5", Threshold.binary 5) ]
      in
      List.iter
        (fun (name, p) ->
          let reference, ref_counters =
            counters_during backward_counters (fun () -> Stable_sets.analyse p)
          in
          List.iter
            (fun jobs ->
              let a, cs =
                counters_during backward_counters (fun () ->
                    Stable_sets.analyse ~jobs p)
              in
              if not (analyses_equal a reference) then
                Alcotest.failf "%s: bases differ at jobs=%d" name jobs;
              if cs <> ref_counters then
                Alcotest.failf "%s: work counters differ at jobs=%d" name jobs)
            jobs_matrix)
        protocols)

(* -- Hilbert bases: parallel completion rounds ---------------------------- *)

let hilbert_counters =
  [ "hilbert.candidates"; "hilbert.pruned_scalar"; "hilbert.pruned_dominated";
    "hilbert.pruned_duplicate" ]

let test_hilbert_matrix () =
  with_metrics (fun () ->
      let corpus =
        (* Potential.basis needs leaderless single-input protocols *)
        List.filter
          (fun (_, p) ->
            Population.is_leaderless p
            && Array.length p.Population.input_vars = 1)
          (List.map (fun f -> (f, load_corpus f))
             [ "flock8.pp"; "majority.pp"; "parity.pp"; "exists_pair.pp";
               "broken_flock.pp" ])
      in
      let protocols =
        corpus
        @ [ ("flock-succinct-2", Flock.succinct 2);
            ("flock-succinct-3", Flock.succinct 3);
            ("threshold-unary-4", Threshold.unary 4);
            ("mod-3-1", Modulo_protocol.protocol ~m:3 ~r:1) ]
      in
      List.iter
        (fun (name, p) ->
          let reference, ref_counters =
            counters_during hilbert_counters (fun () -> Potential.basis p)
          in
          List.iter
            (fun jobs ->
              let b, cs =
                counters_during hilbert_counters (fun () ->
                    Potential.basis ~jobs p)
              in
              if b <> reference then
                Alcotest.failf "%s: basis differs at jobs=%d" name jobs;
              if cs <> ref_counters then
                Alcotest.failf "%s: work counters differ at jobs=%d" name jobs)
            jobs_matrix)
        protocols)

(* -- lazy vs eager SCC exploration ---------------------------------------- *)

let verdict = Alcotest.testable Fair_semantics.pp_verdict ( = )

let test_lazy_vs_eager_corpus () =
  let checks =
    [ ("flock8.pp", [ 2; 7; 8; 9 ]); ("majority.pp", [ 2; 3 ]);
      ("parity.pp", [ 2; 3; 4 ]) ]
  in
  List.iter
    (fun (file, inputs) ->
      let p = load_corpus file in
      List.iter
        (fun i ->
          let v =
            match Array.length p.Population.input_vars with
            | 1 -> [| i |]
            | k -> Array.make k i
          in
          (* the lazy verdict, on the representation Fair_semantics
             picks, against the eager multiset oracle *)
          Alcotest.check verdict
            (Printf.sprintf "%s input %d packed=%b" file i
               (Configgraph.Packed.applicable p
                  (Population.initial_config p v)))
            (Verdict_oracle.verdict p v)
            (Fair_semantics.decide p v))
        inputs)
    checks

let test_lazy_stops_early () =
  (* A consensus-free bottom SCC lets the lazy path abandon the
     exploration, so it must intern strictly fewer configurations than
     the full graph has. The "mixer" protocol reaches absorbing
     configurations populating both an accepting and a rejecting state,
     and its graph branches, so the first such sink the DFS pops prunes
     whole sibling subtrees. *)
  with_metrics (fun () ->
      let p =
        Population.complete
          (Population.make ~name:"mixer" ~states:[| "a"; "b"; "c" |]
             ~transitions:[ (0, 0, 1, 2); (0, 1, 1, 1) ]
             ~inputs:[ ("x", 0) ]
             ~output:[| false; true; false |] ())
      in
      let v = [| 10 |] in
      let full =
        Array.length
          (Configgraph.explore p (Population.initial_config p v))
            .Configgraph.configs
      in
      let vl, cs =
        counters_during [ "configgraph.configs" ] (fun () ->
            Fair_semantics.decide p v)
      in
      let lazy_ = List.assoc "configgraph.configs" cs in
      Alcotest.check verdict "mixer verdict" Fair_semantics.No_consensus
        (Verdict_oracle.verdict p v);
      Alcotest.check verdict "lazy verdict agrees" Fair_semantics.No_consensus
        vl;
      if lazy_ >= full then
        Alcotest.failf
          "lazy path explored %d configs, the full graph has %d: no early stop"
          lazy_ full)

(* -- property tests ------------------------------------------------------- *)

let stable_base_minimal_prop =
  prop "stable-set bases are minimal antichains, identical in parallel"
    ~count:20 QCheck.(int_bound 10_000)
    (fun seed ->
      let p = random_protocol ~d:3 ~seed in
      let a = Stable_sets.analyse p in
      let antichain ds =
        let els = Downset.max_elements ds in
        List.for_all
          (fun x ->
            List.for_all
              (fun y -> x == y || not (Omega_vec.leq x y))
              els)
          els
      in
      antichain a.Stable_sets.stable0
      && antichain a.Stable_sets.stable1
      && analyses_equal a (Stable_sets.analyse ~jobs:3 p))

let stable_closed_under_steps_prop =
  prop "b-stable configurations have output b and only b-stable successors"
    ~count:20
    QCheck.(pair (int_bound 10_000) (int_bound 5))
    (fun (seed, i) ->
      let p = random_protocol ~d:3 ~seed in
      let a = Stable_sets.analyse p in
      let c = Population.initial_config p [| i + 2 |] in
      List.for_all
        (fun b ->
          (not (Stable_sets.is_stable a b c))
          || (Population.output_of_config p c = Some b
              && List.for_all
                   (fun c' -> Stable_sets.is_stable a b c')
                   (Population.distinct_successors p c)))
        [ false; true ])

let hilbert_minimal_prop =
  prop "parallel Hilbert bases verify as pointwise-minimal" ~count:15
    QCheck.(int_bound 10_000)
    (fun seed ->
      let p = random_protocol ~d:3 ~seed in
      let sys = Potential.system p in
      match Potential.basis ~jobs:2 ~max_candidates:200_000 p with
      | basis -> Hilbert_basis.verify_minimal sys ~eq:false basis
      | exception Obs.Budget.Exceeded _ -> true)

(* The packed case is per input: the search's verdicts (packed, since
   d = 3) must equal the multiset oracle's on every input it checks. *)
let eta_invariance_prop =
  prop "eta verdicts invariant under packed/lazy/stable-set settings"
    ~count:15 QCheck.(int_bound 10_000)
    (fun seed ->
      let p = random_protocol ~d:3 ~seed in
      Stable_sets.memo_clear ();
      match Eta_search.find p ~max_configs:60_000 ~max_input:6 with
      | reference ->
        List.for_all
          (fun i ->
            Fair_semantics.decide p [| i |] = Verdict_oracle.verdict p [| i |])
          (Fair_semantics.valid_inputs_single p ~max:6)
        && List.for_all
             (fun stable ->
               match
                 Eta_search.find ~stable ~jobs:2 p ~max_configs:60_000
                   ~max_input:6
               with
               | r -> r = reference
               | exception Configgraph.Too_many_configs _ -> false)
             [ `Memo; `Per_input ]
      | exception Configgraph.Too_many_configs _ -> true)

(* -- budget and fault behaviour ------------------------------------------- *)

let test_partial_basis_deterministic () =
  (* A budget trip in the middle of a parallel completion must join all
     domains (the call returns rather than hanging) and carry the same
     partial basis and the same consumed counts as the sequential
     trip. *)
  let p = Flock.succinct 3 in
  let trip jobs =
    match Potential.basis ~jobs ~max_candidates:40 p with
    | _ -> Alcotest.fail "expected the candidate budget to trip"
    | exception Obs.Budget.Exceeded info ->
      (match info.Obs.Budget.partial with
       | Hilbert_basis.Partial_basis partial ->
         (partial, info.Obs.Budget.consumed)
       | _ -> Alcotest.fail "expected Partial_basis in the budget exception")
  in
  let reference = trip 1 in
  List.iter
    (fun jobs ->
      let partial, consumed = trip jobs in
      let ref_partial, ref_consumed = reference in
      if partial <> ref_partial then
        Alcotest.failf "partial basis differs at jobs=%d" jobs;
      if consumed <> ref_consumed then
        Alcotest.failf "consumed counts differ at jobs=%d" jobs)
    [ 2; 4 ];
  (* the pool is reusable after the fault: a fresh parallel solve on
     the same protocol still matches the sequential one *)
  Alcotest.(check bool) "parallel solve works after a budget fault" true
    (Potential.basis ~jobs:4 p = Potential.basis p)

let test_partial_clover_deterministic () =
  let p = load_corpus "flock8.pp" in
  let c0 = Population.initial_config p [| 12 |] in
  let trip () =
    match Karp_miller.clover ~max_nodes:10 p c0 with
    | _ -> Alcotest.fail "expected the node budget to trip"
    | exception Obs.Budget.Exceeded info ->
      (match info.Obs.Budget.partial with
       | Karp_miller.Partial_clover vs -> vs
       | _ -> Alcotest.fail "expected Partial_clover in the budget exception")
  in
  let a = trip () and b = trip () in
  Alcotest.(check int) "same partial clover size" (List.length a)
    (List.length b);
  if not (List.for_all2 Omega_vec.equal a b) then
    Alcotest.fail "partial clover differs between identical runs"

(* -- memoized stable sets across the eta sweep ---------------------------- *)

let test_memo_sweep_saves_work () =
  with_metrics (fun () ->
      let p = Flock.succinct 3 in
      let sweep stable =
        Stable_sets.memo_clear ();
        counters_during
          [ "backward.candidates"; "eta_search.stable_hits";
            "stable_sets.memo_hits" ]
          (fun () -> Eta_search.find ~stable p ~max_input:10)
      in
      let eta_per, per = sweep `Per_input in
      let eta_memo, memo = sweep `Memo in
      if eta_per <> eta_memo then
        Alcotest.fail "memoized sweep changed the threshold result";
      (match eta_per with
       | Eta_search.Eta 8 -> ()
       | r -> Alcotest.failf "flock-succinct-3: %a" Eta_search.pp_result r);
      let get l n = List.assoc n l in
      Alcotest.(check bool) "shortcut fires" true
        (get memo "eta_search.stable_hits" > 0);
      Alcotest.(check bool) "memo cache hits" true
        (get memo "stable_sets.memo_hits" > 0);
      if get memo "backward.candidates" >= get per "backward.candidates" then
        Alcotest.failf
          "memoized sweep did %d backward candidates, per-input only %d"
          (get memo "backward.candidates")
          (get per "backward.candidates"))

let test_memo_hit_correctness () =
  with_metrics (fun () ->
      Stable_sets.memo_clear ();
      let p = Flock.succinct 2 in
      let a = Stable_sets.analyse_memo p in
      let b, cs =
        counters_during [ "stable_sets.memo_hits" ] (fun () ->
            Stable_sets.analyse_memo p)
      in
      Alcotest.(check int) "second call is a cache hit" 1
        (List.assoc "stable_sets.memo_hits" cs);
      Alcotest.(check bool) "hit returns the same analysis" true
        (analyses_equal a b);
      (* the fingerprint is structural: a renamed copy still hits *)
      let renamed = Population.rename p "renamed" in
      let c, cs' =
        counters_during [ "stable_sets.memo_hits" ] (fun () ->
            Stable_sets.analyse_memo renamed)
      in
      Alcotest.(check int) "rename still hits" 1
        (List.assoc "stable_sets.memo_hits" cs');
      Alcotest.(check bool) "renamed analysis equal" true (analyses_equal a c))

let () =
  Alcotest.run "parallel_verify"
    [
      ( "backward",
        [ Alcotest.test_case "jobs matrix: identical bases and counters"
            `Quick test_backward_matrix ] );
      ( "hilbert",
        [ Alcotest.test_case "jobs matrix: identical bases and counters"
            `Quick test_hilbert_matrix ] );
      ( "lazy_scc",
        [ Alcotest.test_case "lazy = eager = packed verdicts on the corpus"
            `Quick test_lazy_vs_eager_corpus;
          Alcotest.test_case "lazy path stops before the full graph" `Quick
            test_lazy_stops_early ] );
      ( "properties",
        [ stable_base_minimal_prop; stable_closed_under_steps_prop;
          hilbert_minimal_prop; eta_invariance_prop ] );
      ( "budget",
        [ Alcotest.test_case "Partial_basis identical for any jobs" `Quick
            test_partial_basis_deterministic;
          Alcotest.test_case "Partial_clover deterministic" `Quick
            test_partial_clover_deterministic ] );
      ( "memo",
        [ Alcotest.test_case "memoized eta sweep does strictly less work"
            `Quick test_memo_sweep_saves_work;
          Alcotest.test_case "memo hits return the cached analysis" `Quick
            test_memo_hit_correctness ] );
    ]
