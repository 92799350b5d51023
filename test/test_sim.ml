(* Tests for the deterministic PRNG, the stochastic simulator, and the
   statistics helpers. The simulator's verdicts are cross-checked
   against the exact semantics. *)

let prop name ?(count = 100) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* -- Splitmix64 ----------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Splitmix64.create 7 and b = Splitmix64.create 7 in
  let xs = List.init 16 (fun _ -> Splitmix64.next a) in
  let ys = List.init 16 (fun _ -> Splitmix64.next b) in
  Alcotest.(check (list int64)) "same seed, same stream" xs ys

let test_prng_seed_matters () =
  let a = Splitmix64.create 1 and b = Splitmix64.create 2 in
  Alcotest.(check bool) "different streams" true
    (Splitmix64.next a <> Splitmix64.next b)

let test_prng_copy () =
  let a = Splitmix64.create 3 in
  ignore (Splitmix64.next a);
  let b = Splitmix64.copy a in
  Alcotest.(check int64) "copy preserves state" (Splitmix64.next a) (Splitmix64.next b)

(* fixed-vector regression: the exact first outputs of seed 42, pinned
   so the deterministic-seeding contract (and hence every recorded
   experiment) can never drift silently *)
let test_prng_pinned_vectors () =
  let expected =
    [
      0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L;
      0x581ce1ff0e4ae394L; 0x09bc585a244823f2L; 0xde4431fa3c80db06L;
      0x37e9671c45376d5dL; 0xccf635ee9e9e2fa4L;
    ]
  in
  let g = Splitmix64.create 42 in
  let got = List.init 8 (fun _ -> Splitmix64.next g) in
  Alcotest.(check (list int64)) "first 8 outputs of seed 42" expected got

(* [int_below] and [float_unit] pinned beside [next]. The large bound
   2^61 (just above max_int / 2) rejects about half the raw draws: the
   8 draws consume 10 raw outputs, which the follow-up [next] pins. *)
let test_prng_pinned_draws () =
  let g = Splitmix64.create 42 in
  Alcotest.(check (list int)) "int_below 1000, seed 42"
    [ 853; 72; 964; 941; 812; 265; 231; 977 ]
    (List.init 8 (fun _ -> Splitmix64.int_below g 1000));
  let g = Splitmix64.create 7 in
  Alcotest.(check (list int)) "int_below (max_int / 2 + 1), seed 7"
    [
      1797772400223093621; 77422343148738951; 2086519961375180918;
      1150299863866387076; 2158052326855717949; 1512986910920847295;
      619157119472769496; 1905278406105126106;
    ]
    (List.init 8 (fun _ -> Splitmix64.int_below g ((max_int / 2) + 1)));
  Alcotest.(check int64) "two rejections: the 11th raw output follows"
    0x1a82e79b05b5faebL (Splitmix64.next g);
  let g = Splitmix64.create 42 in
  Alcotest.(check (list (float 0.0))) "float_unit, seed 42"
    [
      0x1.7bae644c5fd6dp-1; 0x1.477f199d93378p-3; 0x1.1d499d5c4c3e6p-2;
      0x1.607387fc392b8p-2;
    ]
    (List.init 4 (fun _ -> Splitmix64.float_unit g))

let test_prng_split_independence () =
  let m = Splitmix64.create 42 in
  let s1 = Splitmix64.split m in
  let s2 = Splitmix64.split m in
  (* the two derived streams and the master's continuation are pinned
     and pairwise distinct *)
  Alcotest.(check int64) "first split" 0xf54abb1228262896L (Splitmix64.next s1);
  Alcotest.(check int64) "second split" 0xfc991bca1a1aa1aeL (Splitmix64.next s2);
  Alcotest.(check int64) "master continues its own stream" 0x47526757130f9f52L
    (Splitmix64.next m);
  (* advancing one stream must not disturb another *)
  let s3 = Splitmix64.split m in
  let probe = Splitmix64.copy s3 in
  for _ = 1 to 100 do ignore (Splitmix64.next s1) done;
  Alcotest.(check int64) "streams are isolated" (Splitmix64.next probe)
    (Splitmix64.next s3)

(* the O(1) jump equals the master's sequential splits, for seeds at
   both ends of the int range *)
let test_prng_nth_split () =
  List.iter
    (fun seed ->
      let master = Splitmix64.create seed in
      for i = 0 to 40 do
        let s = Splitmix64.split master in
        let jumped = Splitmix64.nth_split ~seed i in
        Alcotest.(check (list int64))
          (Printf.sprintf "seed %d, split %d" seed i)
          (List.init 3 (fun _ -> Splitmix64.next s))
          (List.init 3 (fun _ -> Splitmix64.next jumped))
      done)
    [ 0; 42; -1; max_int; min_int ]

let prng_props =
  [
    prop "int_below in range" QCheck.(pair (int_range 1 1000) int) (fun (n, seed) ->
        let g = Splitmix64.create seed in
        let v = Splitmix64.int_below g n in
        0 <= v && v < n);
    prop "float_unit in range" QCheck.int (fun seed ->
        let g = Splitmix64.create seed in
        let v = Splitmix64.float_unit g in
        0.0 <= v && v < 1.0);
    prop "int_below roughly uniform" QCheck.(int_range 0 10_000) (fun seed ->
        (* over 3000 draws from {0,1,2}, each bucket within generous bounds *)
        let g = Splitmix64.create seed in
        let counts = Array.make 3 0 in
        for _ = 1 to 3000 do
          let v = Splitmix64.int_below g 3 in
          counts.(v) <- counts.(v) + 1
        done;
        Array.for_all (fun c -> c > 800 && c < 1200) counts);
  ]

(* -- Simulator ------------------------------------------------------------ *)

let test_sim_flock_accepts () =
  let rng = Splitmix64.create 42 in
  let p = Flock.succinct 3 in
  let r = Simulator.run_input ~rng p [| 20 |] in
  Alcotest.(check bool) "converged" true r.Simulator.converged;
  Alcotest.(check (option bool)) "accepts (20 >= 8)" (Some true) r.Simulator.output;
  Alcotest.(check int) "population preserved" 20 (Mset.size r.Simulator.final)

let test_sim_flock_rejects () =
  let rng = Splitmix64.create 42 in
  let p = Flock.succinct 3 in
  let r = Simulator.run_input ~rng p [| 5 |] in
  Alcotest.(check bool) "converged" true r.Simulator.converged;
  Alcotest.(check (option bool)) "rejects (5 < 8)" (Some false) r.Simulator.output

let test_sim_reproducible () =
  let p = Flock.succinct 2 in
  let r1 = Simulator.run_input ~rng:(Splitmix64.create 5) p [| 13 |] in
  let r2 = Simulator.run_input ~rng:(Splitmix64.create 5) p [| 13 |] in
  Alcotest.(check int) "same steps" r1.Simulator.steps r2.Simulator.steps;
  Alcotest.(check bool) "same final" true (Mset.equal r1.Simulator.final r2.Simulator.final)

let test_sim_small_population_rejected () =
  let p = Flock.succinct 2 in
  Alcotest.check_raises "size >= 2"
    (Invalid_argument "Simulator.run: population size >= 2 required") (fun () ->
      ignore
        (Simulator.run ~rng:(Splitmix64.create 1) p
           (Mset.of_list (Population.num_states p) [ (1, 1) ])))

let test_sim_parallel_time () =
  let r =
    Simulator.run_input ~rng:(Splitmix64.create 9) (Flock.succinct 2) [| 50 |]
  in
  let pt = Simulator.parallel_time r ~population:50 in
  Alcotest.(check bool) "positive and finite" true (pt >= 0.0 && pt < 1e6)

(* chi-square sanity: the oracle's scheduler draws unordered agent pairs
   uniformly. On counts [2; 2; 2] (6 agents, 30 ordered pairs) each
   same-state pair {i,i} has probability 2/30 and each cross pair {i,j}
   8/30; with 30000 draws the chi-square statistic over the 6 categories
   (5 degrees of freedom) stays below the p = 0.001 critical value 20.5
   unless the sampler is biased. Deterministic via the fixed seed. *)
let test_sample_pair_chi_square () =
  let rng = Splitmix64.create 2026 in
  let counts = [| 2; 2; 2 |] in
  let draws = 30_000 in
  let observed = Hashtbl.create 6 in
  for _ = 1 to draws do
    let s1, s2 = Sim_oracle.Uniform.sample_pair rng counts 6 in
    let key = if s1 <= s2 then (s1, s2) else (s2, s1) in
    Hashtbl.replace observed key
      (1 + Option.value ~default:0 (Hashtbl.find_opt observed key))
  done;
  Alcotest.(check bool) "counts untouched" true (counts = [| 2; 2; 2 |]);
  let chi2 = ref 0.0 in
  List.iter
    (fun (key, p) ->
      let expected = p *. float_of_int draws in
      let o = float_of_int (Option.value ~default:0 (Hashtbl.find_opt observed key)) in
      chi2 := !chi2 +. (((o -. expected) ** 2.0) /. expected))
    [
      ((0, 0), 2.0 /. 30.0); ((1, 1), 2.0 /. 30.0); ((2, 2), 2.0 /. 30.0);
      ((0, 1), 8.0 /. 30.0); ((0, 2), 8.0 /. 30.0); ((1, 2), 8.0 /. 30.0);
    ];
  if !chi2 > 20.5 then
    Alcotest.failf "pair sampling not uniform: chi-square %.2f > 20.5" !chi2

(* simulation agrees with the exact semantics on decided inputs *)
let sim_vs_exact_prop =
  prop "simulator verdict matches exact semantics" ~count:15
    QCheck.(pair (int_range 2 14) (int_range 0 1000))
    (fun (i, seed) ->
      let p = Threshold.binary 6 in
      match Fair_semantics.decide p [| i |] with
      | Fair_semantics.Decides expected ->
        let r = Simulator.run_input ~rng:(Splitmix64.create seed) p [| i |] in
        r.Simulator.converged && r.Simulator.output = Some expected
      | _ -> false)

let test_sample_parallel_times () =
  let ts =
    Ensemble.parallel_times
      (Ensemble.run_input ~jobs:1 ~seed:2 ~trials:5 (Flock.succinct 3) [| 40 |])
  in
  Alcotest.(check int) "five runs" 5 (List.length ts);
  Alcotest.(check bool) "all nonnegative" true (List.for_all (fun t -> t >= 0.0) ts)

(* with leaders *)
let test_sim_with_leaders () =
  let p = Leader_counter.protocol 2 in
  let r = Simulator.run_input ~rng:(Splitmix64.create 11) p [| 10 |] in
  Alcotest.(check (option bool)) "10 >= 4 accepted" (Some true) r.Simulator.output

(* -- Gillespie ------------------------------------------------------------- *)

let test_gillespie_verdicts () =
  let rng = Splitmix64.create 17 in
  let p = Flock.succinct 3 in
  let accept = Gillespie.run_input ~rng p [| 20 |] in
  Alcotest.(check (option bool)) "accepts 20 >= 8" (Some true) accept.Gillespie.output;
  Alcotest.(check bool) "converged" true accept.Gillespie.converged;
  Alcotest.(check bool) "time advanced" true (accept.Gillespie.time > 0.0);
  let reject = Gillespie.run_input ~rng p [| 5 |] in
  Alcotest.(check (option bool)) "rejects 5 < 8" (Some false) reject.Gillespie.output

let test_gillespie_deterministic () =
  let p = Flock.succinct 2 in
  let r1 = Gillespie.run_input ~rng:(Splitmix64.create 4) p [| 15 |] in
  let r2 = Gillespie.run_input ~rng:(Splitmix64.create 4) p [| 15 |] in
  Alcotest.(check int) "same steps" r1.Gillespie.steps r2.Gillespie.steps;
  Alcotest.(check (float 1e-12)) "same time" r1.Gillespie.time r2.Gillespie.time

let test_gillespie_inert () =
  (* a protocol whose completed transitions are all identities is inert *)
  let p =
    Population.complete
      (Population.make ~name:"inert" ~states:[| "x" |] ~transitions:[]
         ~inputs:[ ("x", 0) ]
         ~output:[| true |] ())
  in
  let r = Gillespie.run_input ~rng:(Splitmix64.create 1) p [| 5 |] in
  Alcotest.(check int) "no reactions" 0 r.Gillespie.steps;
  Alcotest.(check bool) "converged (inert)" true r.Gillespie.converged;
  Alcotest.(check (option bool)) "consensus" (Some true) r.Gillespie.output

let test_gillespie_population_preserved () =
  let rng = Splitmix64.create 23 in
  let p = Threshold.binary 6 in
  let r = Gillespie.run_input ~rng p [| 17 |] in
  Alcotest.(check int) "size conserved" 17 (Mset.size r.Gillespie.final)

let gillespie_vs_exact_prop =
  prop "gillespie verdict matches exact semantics" ~count:12
    QCheck.(pair (int_range 2 12) (int_range 0 999))
    (fun (i, seed) ->
      let p = Threshold.binary 5 in
      match Fair_semantics.decide p [| i |] with
      | Fair_semantics.Decides expected ->
        let r = Gillespie.run_input ~rng:(Splitmix64.create seed) p [| i |] in
        r.Gillespie.converged && r.Gillespie.output = Some expected
      | _ -> false)

(* -- Hand-built protocols ----------------------------------------------- *)

(* A nondeterministic coin: [x,x] stays put (an identity) or turns one
   agent into [t] or [f], [x] joins whichever side it meets, and [t,f]
   converts either way. Output 1 on [x] and [t]; runs end in all-[t] or
   all-[f] at random. *)
let coin =
  Population.make ~name:"coin" ~states:[| "x"; "t"; "f" |]
    ~transitions:
      [
        (0, 0, 0, 0); (0, 0, 1, 0); (0, 0, 2, 0); (0, 1, 1, 1); (0, 2, 2, 2);
        (1, 2, 1, 1); (1, 2, 2, 2);
      ]
    ~inputs:[ ("x", 0) ] ~output:[| true; true; false |] ()

(* One pair [a,b] with an identity and a productive transition to [c,c]:
   on two agents each interaction fires the productive one with
   probability 1/2, after which the population is silent. *)
let half =
  Population.make ~name:"half" ~states:[| "a"; "b"; "c" |]
    ~transitions:[ (0, 1, 0, 1); (0, 1, 2, 2) ]
    ~inputs:[ ("a", 0); ("b", 1) ] ~output:[| true; true; false |] ()

(* [a,a] and [b,b] swap forever. With both states output 1 ([swap]) the
   status never changes; with [b] output 0 ([flicker]) three agents are
   decided only in the all-[a] configuration, which lasts one step. *)
let swap_with output =
  Population.make ~name:"swap" ~states:[| "a"; "b" |]
    ~transitions:[ (0, 0, 1, 1); (1, 1, 0, 0) ]
    ~inputs:[ ("a", 0) ] ~output ()

let swap = swap_with [| true; true |]
let flicker = swap_with [| true; false |]

(* No transition at all: one [a] (output 1) and one [b] (output 0) stay
   undecided forever. *)
let stuck =
  Population.make ~name:"stuck" ~states:[| "a"; "b" |] ~transitions:[]
    ~inputs:[ ("a", 0); ("b", 1) ] ~output:[| true; false |] ()

(* the weights depend on the kind of clock only, not on its stops *)
let steps_clock = Event_kernel.Steps { max_steps = 0; quiet_steps = 1 }

let continuous_clock =
  Event_kernel.Continuous { max_steps = 0; quiet_time = 0.0; scale = 1.0 }

(* From-scratch total weight: pair count times L/k on the step clock
   (k transitions on the pre-pair, L their lcm), the plain pair count on
   the continuous one, summed over the productive transitions. *)
let naive_total clock p config =
  let trs = Array.to_list p.Population.transitions in
  let productive =
    List.filter (fun (t : Population.transition) -> t.pre <> t.post) trs
  in
  let k (t : Population.transition) =
    match clock with
    | Event_kernel.Steps _ ->
      List.length (List.filter (fun (u : Population.transition) -> u.pre = t.pre) trs)
    | Event_kernel.Continuous _ -> 1
  in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let l = List.fold_left (fun l t -> l * k t / gcd l (k t)) 1 productive in
  let c = Mset.get config in
  List.fold_left
    (fun acc (t : Population.transition) ->
      let a, b = t.pre in
      let pairs = if a = b then c a * (c a - 1) / 2 else c a * c b in
      acc + (pairs * (l / k t)))
    0 productive

(* the kernel's incremental integer weights equal a from-scratch
   recomputation along random traces, on both clocks *)
let propensity_incremental_prop =
  prop "incremental = naive propensity totals on random traces" ~count:25
    QCheck.(pair (int_range 4 20) (int_range 0 10_000))
    (fun (input, seed) ->
      let rng = Splitmix64.create seed in
      List.for_all
        (fun (p, clock) ->
          let s = Event_kernel.state clock p (Population.initial_config p [| input |]) in
          let agree () = Event_kernel.total s = naive_total clock p (Event_kernel.config s) in
          let ok = ref (agree ()) in
          let steps = ref 0 in
          while !ok && !steps < 200 && Event_kernel.total s > 0 do
            Event_kernel.fire s (Splitmix64.int_below rng (Event_kernel.total s));
            ok := agree () && Mset.size (Event_kernel.config s) = input;
            incr steps
          done;
          !ok)
        [
          (Threshold.binary 5, steps_clock); (Threshold.binary 5, continuous_clock);
          (coin, steps_clock); (coin, continuous_clock);
        ])

(* -- Event kernel: exact stopping rules ----------------------------------- *)

let test_budget_exact () =
  let r = Simulator.run_input ~max_steps:10_001 ~rng:(Splitmix64.create 3) flicker [| 3 |] in
  Alcotest.(check int) "interactions" 10_001 r.Simulator.steps;
  Alcotest.(check bool) "not converged" false r.Simulator.converged;
  let g = Gillespie.run_input ~max_steps:10_001 ~rng:(Splitmix64.create 3) flicker [| 3 |] in
  Alcotest.(check int) "reactions" 10_001 g.Gillespie.steps;
  Alcotest.(check bool) "SSA not converged" false g.Gillespie.converged

let test_quiet_in_null_run () =
  (* [swap] on 10 agents keeps firing and never changes status: every
     run stops exactly where the 640-step window closes *)
  for seed = 1 to 5 do
    let r = Simulator.run_input ~rng:(Splitmix64.create seed) swap [| 10 |] in
    Alcotest.(check int) "stops at quiet_steps" 640 r.Simulator.steps;
    Alcotest.(check int) "no status change" 0 r.Simulator.last_change;
    Alcotest.(check bool) "converged" true r.Simulator.converged
  done;
  (* one status change, then a null run that never ends ([half]) or that
     firings interrupt (flock) *)
  for seed = 1 to 20 do
    let r = Simulator.run_input ~rng:(Splitmix64.create seed) half [| 1; 1 |] in
    Alcotest.(check int) "half: last_change + 128" (r.Simulator.last_change + 128)
      r.Simulator.steps;
    Alcotest.(check (option bool)) "half: output" (Some false) r.Simulator.output;
    let r = Simulator.run_input ~rng:(Splitmix64.create seed) (Flock.succinct 3) [| 20 |] in
    Alcotest.(check int) "flock: last_change + 1280" (r.Simulator.last_change + 1280)
      r.Simulator.steps;
    Alcotest.(check bool) "flock: converged" true r.Simulator.converged
  done

let test_silent_undecided () =
  let r = Simulator.run_input ~max_steps:1000 ~rng:(Splitmix64.create 1) stuck [| 1; 1 |] in
  Alcotest.(check int) "runs to the budget" 1000 r.Simulator.steps;
  Alcotest.(check int) "no status change" 0 r.Simulator.last_change;
  Alcotest.(check (option bool)) "undecided" None r.Simulator.output;
  Alcotest.(check bool) "not converged" false r.Simulator.converged

let test_inert_ssa () =
  let r = Gillespie.run_input ~rng:(Splitmix64.create 1) stuck [| 1; 1 |] in
  Alcotest.(check int) "no reactions" 0 r.Gillespie.steps;
  Alcotest.(check (float 0.0)) "no time" 0.0 r.Gillespie.time;
  Alcotest.(check (option bool)) "undecided" None r.Gillespie.output;
  Alcotest.(check bool) "converged (inert)" true r.Gillespie.converged

(* identities weigh zero: the identity-free copy of a deterministic
   protocol draws the same numbers and follows the same trajectory *)
let test_identity_free_replay () =
  let p = Population.complete (Flock.succinct 3) in
  let q =
    Population.make ~name:"no-identity" ~states:p.Population.states
      ~transitions:
        (Array.to_list p.Population.transitions
        |> List.filter (fun (t : Population.transition) -> t.pre <> t.post)
        |> List.map (fun { Population.pre = a, b; post = c, d } -> (a, b, c, d)))
      ~inputs:[ (p.Population.input_vars.(0), p.Population.input_map.(0)) ]
      ~output:p.Population.output ()
  in
  Alcotest.(check bool) "identities stripped" true
    (Population.num_transitions q < Population.num_transitions p);
  for seed = 1 to 10 do
    let r = Simulator.run_input ~rng:(Splitmix64.create seed) p [| 20 |] in
    let r' = Simulator.run_input ~rng:(Splitmix64.create seed) q [| 20 |] in
    Alcotest.(check int) "steps" r.Simulator.steps r'.Simulator.steps;
    Alcotest.(check int) "last_change" r.Simulator.last_change r'.Simulator.last_change;
    Alcotest.(check bool) "final" true (Mset.equal r.Simulator.final r'.Simulator.final);
    let g = Gillespie.run_input ~rng:(Splitmix64.create seed) p [| 20 |] in
    let g' = Gillespie.run_input ~rng:(Splitmix64.create seed) q [| 20 |] in
    Alcotest.(check (float 0.0)) "SSA last_change" g.Gillespie.last_change
      g'.Gillespie.last_change
  done

(* [sim.null_interactions] counts identity firings and pairs without a
   transition alike: on [half] everything but the one productive firing *)
let test_null_counter () =
  let cell = Obs.Metrics.counter "sim.null_interactions" in
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  let before = Obs.Metrics.value cell in
  let r = Simulator.run_input ~rng:(Splitmix64.create 5) half [| 1; 1 |] in
  let nulls = Obs.Metrics.value cell - before in
  Obs.Metrics.set_enabled was;
  Alcotest.(check int) "nulls" (r.Simulator.steps - 1) nulls

(* -- Statistical oracle: the kernel against the old loops ---------------- *)

(* [n] independent streams split off one seed, as an ensemble assigns them *)
let streams seed n =
  let master = Splitmix64.create seed in
  List.init n (fun _ -> Splitmix64.split master)

(* Two-sample Kolmogorov-Smirnov statistic. *)
let ks_statistic xs ys =
  let xs = Array.of_list (List.sort compare xs) and ys = Array.of_list (List.sort compare ys) in
  let n = Array.length xs and m = Array.length ys in
  let rec go i j d =
    if i >= n || j >= m then d
    else
      let v = Float.min xs.(i) ys.(j) in
      let rec past a k = if k < Array.length a && a.(k) <= v then past a (k + 1) else k in
      let i = past xs i and j = past ys j in
      go i j
        (Float.max d
           (Float.abs ((float_of_int i /. float_of_int n) -. (float_of_int j /. float_of_int m))))
  in
  go 0 0 0.0

(* critical value at significance 0.001 *)
let ks_critical n m = 1.9495 *. sqrt (float_of_int (n + m) /. float_of_int (n * m))

(* Chi-square statistic and degrees of freedom of a 2 x k homogeneity
   test; categories empty on both sides are dropped. *)
let chi2_homogeneity a b =
  let na = Array.fold_left ( + ) 0 a and nb = Array.fold_left ( + ) 0 b in
  let stat = ref 0.0 and df = ref (-1) in
  Array.iteri
    (fun i ai ->
      let total = ai + b.(i) in
      if total > 0 then begin
        incr df;
        let share = float_of_int total /. float_of_int (na + nb) in
        let cell o e = ((float_of_int o -. e) ** 2.0) /. e in
        stat := !stat +. cell ai (share *. float_of_int na) +. cell b.(i) (share *. float_of_int nb)
      end)
    a;
  (!stat, Stdlib.max 0 !df)

(* critical values at significance 0.001, by degrees of freedom *)
let chi2_critical = [| 0.0; 10.83; 13.82; 16.27; 18.47 |]

let check_chi2 what a b =
  let stat, df = chi2_homogeneity a b in
  if stat > chi2_critical.(df) then
    Alcotest.failf "%s: chi-square %.2f > %.2f (df %d)" what stat chi2_critical.(df) df

let output_counts outputs =
  let c = Array.make 3 0 in
  List.iter
    (fun o ->
      let k = match o with Some true -> 0 | Some false -> 1 | None -> 2 in
      c.(k) <- c.(k) + 1)
    outputs;
  c

(* a run reduced to what the oracle compares: last_change, steps, output *)
type sample = float * float * bool option

let compare_with_oracle ~trials ~(kernel : Splitmix64.t -> sample)
    ~(oracle : Splitmix64.t -> sample) () =
  let a = List.map kernel (streams 11 trials) and b = List.map oracle (streams 12 trials) in
  let ks what f =
    let d = ks_statistic (List.map f a) (List.map f b) in
    let crit = ks_critical trials trials in
    if d > crit then Alcotest.failf "%s: KS distance %.3f > %.3f" what d crit
  in
  ks "last_change" (fun (l, _, _) -> l);
  ks "steps" (fun (_, s, _) -> s);
  check_chi2 "outputs"
    (output_counts (List.map (fun (_, _, o) -> o) a))
    (output_counts (List.map (fun (_, _, o) -> o) b))

let uniform_case name p input =
  let sample (r : Simulator.run_result) =
    (float_of_int r.last_change, float_of_int r.steps, r.output)
  in
  Alcotest.test_case ("uniform: " ^ name) `Quick
    (compare_with_oracle ~trials:300
       ~kernel:(fun rng -> sample (Simulator.run_input ~rng p input))
       ~oracle:(fun rng -> sample (Sim_oracle.Uniform.run_input ~rng p input)))

let ssa_case name p input =
  let sample (r : Gillespie.run_result) = (r.last_change, float_of_int r.steps, r.output) in
  Alcotest.test_case ("gillespie: " ^ name) `Quick
    (compare_with_oracle ~trials:300
       ~kernel:(fun rng -> sample (Gillespie.run_input ~rng p input))
       ~oracle:(fun rng -> sample (Sim_oracle.Ssa.run_input ~rng p input)))

let oracle_cases =
  let cases =
    [
      ("coin (nondeterministic)", coin, [| 8 |]);
      ("leader-counter-2", Leader_counter.protocol 2, [| 10 |]);
      ("flock-succinct-2", Flock.succinct 2, [| 12 |]);
    ]
  in
  List.map (fun (name, p, v) -> uniform_case name p v) cases
  @ List.map (fun (name, p, v) -> ssa_case name p v) cases

(* on [half] the first firing is geometric with rate 1/2: bins
   1, 2, 3, 4, >= 5 of last_change against the oracle and the law *)
let test_half_rate () =
  let trials = 2000 in
  let bins run =
    let c = Array.make 5 0 in
    List.iter
      (fun rng ->
        let l : int = run rng in
        let k = Stdlib.min 5 l - 1 in
        c.(k) <- c.(k) + 1)
      (streams 21 trials);
    c
  in
  let kernel = bins (fun rng -> (Simulator.run_input ~rng half [| 1; 1 |]).last_change) in
  let oracle =
    bins (fun rng -> (Sim_oracle.Uniform.run_input ~rng half [| 1; 1 |]).Simulator.last_change)
  in
  check_chi2 "kernel vs oracle" kernel oracle;
  let law = [| 0.5; 0.25; 0.125; 0.0625; 0.0625 |] in
  let stat = ref 0.0 in
  Array.iteri
    (fun i o ->
      let e = law.(i) *. float_of_int trials in
      stat := !stat +. (((float_of_int o -. e) ** 2.0) /. e))
    kernel;
  if !stat > chi2_critical.(4) then
    Alcotest.failf "kernel vs geometric(1/2): chi-square %.2f > %.2f" !stat chi2_critical.(4)

(* -- Stats ---------------------------------------------------------------- *)

let test_stats_basic () =
  let xs = [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean xs);
  Alcotest.(check (float 1e-6)) "stddev" 1.2909944487 (Stats.stddev xs);
  Alcotest.(check (float 1e-9)) "median" 2.5 (Stats.median xs);
  Alcotest.(check (float 1e-9)) "q0" 1.0 (Stats.quantile 0.0 xs);
  Alcotest.(check (float 1e-9)) "q1" 4.0 (Stats.quantile 1.0 xs)

let test_stats_errors () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty") (fun () ->
      ignore (Stats.mean []));
  Alcotest.(check string) "summary of empty" "n=0" (Stats.summary [])

let stats_props =
  [
    prop "mean within min..max" QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (float_bound_inclusive 100.0))
      (fun xs ->
        let m = Stats.mean xs in
        m >= List.fold_left Stdlib.min infinity xs -. 1e-9
        && m <= List.fold_left Stdlib.max neg_infinity xs +. 1e-9);
    prop "quantiles monotone" QCheck.(list_of_size (QCheck.Gen.int_range 2 20) (float_bound_inclusive 100.0))
      (fun xs -> Stats.quantile 0.25 xs <= Stats.quantile 0.75 xs +. 1e-9);
    prop "stddev nonnegative" QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (float_bound_inclusive 100.0))
      (fun xs -> Stats.stddev xs >= 0.0);
  ]

let () =
  Alcotest.run "sim"
    [
      ( "splitmix64",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed matters" `Quick test_prng_seed_matters;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "pinned vectors" `Quick test_prng_pinned_vectors;
          Alcotest.test_case "pinned int_below and float_unit" `Quick
            test_prng_pinned_draws;
          Alcotest.test_case "split independence" `Quick test_prng_split_independence;
          Alcotest.test_case "nth_split = sequential splits" `Quick test_prng_nth_split;
        ]
        @ prng_props );
      ( "simulator",
        [
          Alcotest.test_case "accepts" `Quick test_sim_flock_accepts;
          Alcotest.test_case "rejects" `Quick test_sim_flock_rejects;
          Alcotest.test_case "reproducible" `Quick test_sim_reproducible;
          Alcotest.test_case "small population" `Quick test_sim_small_population_rejected;
          Alcotest.test_case "parallel time" `Quick test_sim_parallel_time;
          Alcotest.test_case "samples" `Quick test_sample_parallel_times;
          Alcotest.test_case "leaders" `Quick test_sim_with_leaders;
          Alcotest.test_case "pair sampling chi-square" `Quick
            test_sample_pair_chi_square;
          sim_vs_exact_prop;
        ] );
      ( "gillespie",
        [
          Alcotest.test_case "verdicts" `Quick test_gillespie_verdicts;
          Alcotest.test_case "deterministic" `Quick test_gillespie_deterministic;
          Alcotest.test_case "inert" `Quick test_gillespie_inert;
          Alcotest.test_case "population preserved" `Quick test_gillespie_population_preserved;
          gillespie_vs_exact_prop;
          propensity_incremental_prop;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "budget run ends at max_steps" `Quick test_budget_exact;
          Alcotest.test_case "quiet window closes inside a null run" `Quick
            test_quiet_in_null_run;
          Alcotest.test_case "silent undecided runs to the budget" `Quick
            test_silent_undecided;
          Alcotest.test_case "inert SSA stops after 0 reactions" `Quick test_inert_ssa;
          Alcotest.test_case "identity-free replay" `Quick test_identity_free_replay;
          Alcotest.test_case "null interaction counter" `Quick test_null_counter;
          Alcotest.test_case "identity halves the pair rate" `Quick test_half_rate;
        ] );
      ("oracle", oracle_cases);
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basic;
          Alcotest.test_case "errors" `Quick test_stats_errors;
        ]
        @ stats_props );
    ]
