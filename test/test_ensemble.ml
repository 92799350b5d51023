(* The multicore Monte-Carlo ensemble engine: determinism across domain
   counts, prefix-stability of per-trial records, Stats laws on
   generated data, and a differential test of ensemble majority verdicts
   against the exact fair semantics on the protocols/ corpus. *)

let prop name ?(count = 100) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let trial_eq (a : Ensemble.trial) (b : Ensemble.trial) =
  a.Ensemble.index = b.Ensemble.index
  && a.Ensemble.steps = b.Ensemble.steps
  && a.Ensemble.parallel_time = b.Ensemble.parallel_time
  && a.Ensemble.output = b.Ensemble.output
  && a.Ensemble.converged = b.Ensemble.converged

let trials_eq a b =
  Array.length a = Array.length b && Array.for_all2 trial_eq a b

(* -- determinism across the domain pool ----------------------------------- *)

let ensemble_of ?(jobs = 1) ?backend ~seed ~trials () =
  Ensemble.run_input ?backend ~jobs ~seed ~trials (Flock.succinct 2) [| 12 |]

let jobs_invariance_prop backend_name backend =
  prop
    (Printf.sprintf "%s: aggregate independent of jobs" backend_name)
    ~count:8 QCheck.(int_range 0 10_000)
    (fun seed ->
      let reference = ensemble_of ~jobs:1 ~backend ~seed ~trials:10 () in
      List.for_all
        (fun jobs ->
          let e = ensemble_of ~jobs ~backend ~seed ~trials:10 () in
          trials_eq reference.Ensemble.trials e.Ensemble.trials
          && Ensemble.summary reference = Ensemble.summary e)
        [ 2; 4 ])

(* 11 trials split unevenly over 3 domains, one per domain at 11, and
   16 domains are clamped to 11 *)
let domain_split_prop =
  prop "aggregate independent of jobs, even past the trial count" ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let reference = ensemble_of ~jobs:1 ~seed ~trials:11 () in
      List.for_all
        (fun jobs ->
          let e = ensemble_of ~jobs ~seed ~trials:11 () in
          trials_eq reference.Ensemble.trials e.Ensemble.trials)
        [ 3; 11; 16 ])

(* trial i's record depends only on (seed, i) — never on the batch size,
   so a longer batch extends a shorter one without rewriting history *)
let prefix_stability_prop =
  prop "per-trial records are prefix-stable in the trial count" ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let small = ensemble_of ~jobs:2 ~seed ~trials:5 () in
      let large = ensemble_of ~jobs:3 ~seed ~trials:12 () in
      trials_eq small.Ensemble.trials
        (Array.sub large.Ensemble.trials 0 5))

let test_rng_for_trial () =
  let e = ensemble_of ~jobs:2 ~seed:99 ~trials:6 () in
  (* re-running trial 4 in isolation from its published stream
     reproduces the record exactly *)
  let rng = Ensemble.rng_for_trial ~seed:99 4 in
  let r = Simulator.run_input ~rng (Flock.succinct 2) [| 12 |] in
  let t = e.Ensemble.trials.(4) in
  Alcotest.(check int) "steps" t.Ensemble.steps r.Simulator.steps;
  Alcotest.(check (option bool)) "output" t.Ensemble.output r.Simulator.output

let test_zero_trials () =
  let e = ensemble_of ~jobs:4 ~seed:1 ~trials:0 () in
  Alcotest.(check int) "no trials" 0 (Array.length e.Ensemble.trials);
  Alcotest.(check string) "summary" "trials=0 converged=0 accept=0 reject=0 undecided=0\nparallel time: n=0\n"
    (Ensemble.summary e)

(* -- Stats laws ----------------------------------------------------------- *)

let floats_arb lo =
  QCheck.(list_of_size (QCheck.Gen.int_range lo 20) (float_bound_inclusive 100.0))

let stats_props =
  [
    prop "quantile monotone in q"
      QCheck.(triple (floats_arb 1) (float_bound_inclusive 1.0) (float_bound_inclusive 1.0))
      (fun (xs, q1, q2) ->
        let lo = Stdlib.min q1 q2 and hi = Stdlib.max q1 q2 in
        Stats.quantile lo xs <= Stats.quantile hi xs +. 1e-9);
    prop "quantile bounded by extremes" (floats_arb 1) (fun xs ->
        let mn = List.fold_left Stdlib.min infinity xs in
        let mx = List.fold_left Stdlib.max neg_infinity xs in
        Stats.quantile 0.0 xs = mn && Stats.quantile 1.0 xs = mx);
    prop "mean within [min, max]" (floats_arb 1) (fun xs ->
        let m = Stats.mean xs in
        m >= List.fold_left Stdlib.min infinity xs -. 1e-9
        && m <= List.fold_left Stdlib.max neg_infinity xs +. 1e-9);
    prop "stddev tiny on constant lists"
      QCheck.(pair (int_range 1 20) (float_bound_inclusive 100.0))
      (fun (n, x) ->
        let sd = Stats.stddev (List.init n (fun _ -> x)) in
        sd >= 0.0 && sd <= 1e-9 *. (1.0 +. Float.abs x));
    prop "histogram counts sum to n" (floats_arb 1) (fun xs ->
        let total =
          List.fold_left (fun acc (_, _, c) -> acc + c) 0 (Stats.histogram xs)
        in
        total = List.length xs);
    prop "histogram spans the data range" (floats_arb 2) (fun xs ->
        match Stats.histogram ~bins:5 xs with
        | [] -> xs = [] (* shrinker artifact: vacuous on the empty list *)
        | ((lo, _, _) :: _ as h) ->
          let _, hi, _ = List.nth h (List.length h - 1) in
          lo = List.fold_left Stdlib.min infinity xs
          && hi = List.fold_left Stdlib.max neg_infinity xs);
  ]

(* -- differential: ensemble majority vs the exact semantics --------------- *)

let corpus_dir () =
  let candidates =
    [ "../protocols"; "protocols"; "../../protocols"; "../../../protocols" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> Alcotest.fail "protocols/ corpus not found"

let corpus_protocols () =
  let dir = corpus_dir () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".pp")
  |> List.sort compare
  |> List.map (fun f ->
         match Protocol_syntax.parse_file (Filename.concat dir f) with
         | Ok p -> (f, Population.complete p)
         | Error e -> Alcotest.failf "%s: %s" f e)

(* every input vector with total population between 2 and [max_pop] *)
let small_inputs p ~max_pop =
  let k = Array.length p.Population.input_vars in
  let rec go k budget =
    if k = 0 then [ [] ]
    else
      List.concat_map
        (fun c -> List.map (fun rest -> c :: rest) (go (k - 1) (budget - c)))
        (List.init (budget + 1) Fun.id)
  in
  go k max_pop
  |> List.map Array.of_list
  |> List.filter (fun v -> Array.fold_left ( + ) 0 v >= 2)

let differential_backend backend_name backend () =
  List.iter
    (fun (file, p) ->
      List.iter
        (fun v ->
          match Fair_semantics.decide p v with
          | Fair_semantics.Decides expected ->
            let e = Ensemble.run_input ~jobs:2 ~backend ~seed:1234 ~trials:50 p v in
            let verdict = Ensemble.majority_output e in
            if verdict <> Some expected then
              Alcotest.failf "%s (%s) at %s: ensemble majority %s, exact %b" file
                backend_name
                (String.concat "," (List.map string_of_int (Array.to_list v)))
                (match verdict with
                 | Some b -> string_of_bool b
                 | None -> "tie")
                expected
          | _ -> (* simulation can't vote on non-deciding inputs *) ())
        (small_inputs p ~max_pop:6))
    (corpus_protocols ())

let () =
  Alcotest.run "ensemble"
    [
      ( "determinism",
        [
          jobs_invariance_prop "uniform" (Ensemble.uniform ());
          jobs_invariance_prop "gillespie"
            (Ensemble.gillespie ~max_steps:500_000 ());
          domain_split_prop;
          prefix_stability_prop;
          Alcotest.test_case "rng_for_trial replays a trial" `Quick
            test_rng_for_trial;
          Alcotest.test_case "empty batch" `Quick test_zero_trials;
        ] );
      ("stats laws", stats_props);
      ( "differential vs exact semantics",
        [
          Alcotest.test_case "corpus, uniform backend" `Slow
            (differential_backend "uniform" (Ensemble.uniform ()));
          Alcotest.test_case "corpus, gillespie backend" `Slow
            (differential_backend "gillespie" (Ensemble.gillespie ()));
        ] );
    ]
