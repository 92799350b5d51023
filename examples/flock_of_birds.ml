(* Example 2.1, end to end: the "flock of birds" question — do at least
   2^k birds (sensed agents) report elevated temperature? — solved by
   the naive protocol P_k (2^k + 1 states) and the succinct P'_k
   (k + 2 states), demonstrating the exponential succinctness gap that
   motivates the paper's state-complexity question.

     dune exec examples/flock_of_birds.exe *)

let () =
  let k = 3 in
  let eta = 1 lsl k in
  let naive = Flock.naive k in
  let succinct = Flock.succinct k in
  Format.printf "threshold x >= %d:@." eta;
  Format.printf "  P_%d  (naive)   : %d states@." k (Population.num_states naive);
  Format.printf "  P'_%d (succinct): %d states@.@." k (Population.num_states succinct);

  (* Exact verification: both protocols decide x >= 8 on every input up
     to 18 — the library's fairness semantics (bottom SCCs of the
     reachability graph) proves this, not just tests it. *)
  List.iter
    (fun p ->
      match
        Fair_semantics.check_predicate p (Predicate.threshold_single eta)
          ~inputs:(List.init 17 (fun i -> [| i + 2 |]))
      with
      | Fair_semantics.Ok_all n ->
        Format.printf "%s: exactly verified on %d inputs@." p.Population.name n
      | Fair_semantics.Mismatch (v, verdict, expected) ->
        Format.printf "%s: WRONG at %d: %a (expected %b)@." p.Population.name
          v.(0) Fair_semantics.pp_verdict verdict expected)
    [ naive; succinct ];

  (* The exact thresholds, discovered rather than assumed: *)
  List.iter
    (fun p ->
      Format.printf "%s: %a@." p.Population.name Eta_search.pp_result
        (Eta_search.find p ~max_input:(eta + 8)))
    [ naive; succinct ];

  (* Watch the succinct protocol merge powers of two: a trace of one
     random execution with 11 birds (11 >= 8, so it must accept). *)
  Format.printf "@.one random execution of P'_%d on 11 birds:@." k;
  let rng = Splitmix64.create 7 in
  let r = Simulator.run_input ~rng succinct [| 11 |] in
  Format.printf "  final configuration: %a (output %s)@."
    (Population.pp_config succinct) r.Simulator.final
    (match r.Simulator.output with
     | Some b -> string_of_int (Bool.to_int b)
     | None -> "undefined");

  (* Parallel-time comparison of the two protocols at population 64. *)
  Format.printf "@.convergence at population 64 (10 runs):@.";
  List.iter
    (fun p ->
      let ts =
        Ensemble.parallel_times (Ensemble.run_input ~jobs:1 ~seed:7 ~trials:10 p [| 64 |])
      in
      Format.printf "  %-18s %s@." p.Population.name (Stats.summary ts))
    [ naive; succinct ];

  (* The general constructions behind Theorem 2.2's BB(n) ∈ Ω(2^n):
     states needed for x >= eta across the two families. *)
  Format.printf "@.states for x >= eta (unary vs binary construction):@.";
  List.iter
    (fun eta ->
      Format.printf "  eta=%-8d unary %-8d binary %d@." eta
        (State_complexity.states_unary eta)
        (State_complexity.states_binary eta))
    [ 8; 64; 1024; 1_000_000 ]
