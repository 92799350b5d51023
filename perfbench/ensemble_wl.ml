(* `ppsim` ensembles on one domain: Ensemble.run_input over the uniform
   scheduler (runs that converge, and runs that spend their whole step
   budget) and over the Gillespie backend. The seed is the ensemble
   seed, so it picks every trial's random stream. *)

open Outcome

(* What every trial of a case must show. *)
type expect =
  | Predicate_value  (** a converged trial outputs the catalog predicate's value *)
  | Whole_budget of int  (** the trial runs exactly this many steps *)

type case = {
  label : string;  (** step name: group:protocol@population *)
  protocol : string;
  input : int array;
  trials : int;
  backend : Ensemble.backend;
  expect : expect;
}

let budget_steps = 5_000_000

let case ?(backend = Ensemble.uniform ()) ?(expect = Predicate_value) group protocol input
    trials =
  {
    expect;
    label =
      Printf.sprintf "%s:%s@%s" group protocol
        (String.concat "+" (Array.to_list (Array.map string_of_int input)));
    protocol;
    input;
    trials;
    backend;
  }

let converge =
  [ case "converge" "flock-succinct-4" [| 2000 |] 40; case "converge" "threshold-binary-13" [| 2000 |] 40 ]

let budget =
  [
    case
      ~backend:(Ensemble.uniform ~max_steps:budget_steps ())
      ~expect:(Whole_budget budget_steps) "budget" "majority" [| 30; 20 |] 10;
  ]

let ssa =
  let backend = Ensemble.gillespie () in
  [
    case ~backend "ssa" "flock-succinct-4" [| 50_000 |] 40;
    case ~backend "ssa" "threshold-binary-13" [| 50_000 |] 40;
  ]

let cases = converge @ budget @ ssa

let trial_digest (t : Ensemble.trial) =
  Printf.sprintf "%d:%d:%h:%s:%b" t.index t.steps t.parallel_time
    (match t.output with Some b -> string_of_bool b | None -> "-")
    t.converged

let digest trials =
  Digest.to_hex (Digest.string (String.concat ";" (Array.to_list (Array.map trial_digest trials))))

let run_trial c p ~seed i =
  let rng = Ensemble.rng_for_trial ~seed i in
  match c.backend with
  | Ensemble.Uniform { max_steps; quiet_window } ->
    let r = Simulator.run_input ~max_steps ~quiet_window ~rng p c.input in
    ( {
        Ensemble.index = i;
        steps = r.Simulator.steps;
        parallel_time =
          Simulator.parallel_time r ~population:(Array.fold_left ( + ) 0 c.input);
        output = r.Simulator.output;
        converged = r.Simulator.converged;
      },
      r.Simulator.final )
  | Ensemble.Gillespie { max_steps; quiet_time; rate } ->
    let r = Gillespie.run_input ~max_steps ~quiet_time ~rate ~rng p c.input in
    ( {
        Ensemble.index = i;
        steps = r.Gillespie.steps;
        parallel_time = r.Gillespie.last_change;
        output = r.Gillespie.output;
        converged = r.Gillespie.converged;
      },
      r.Gillespie.final )

(* Checks shared by the timed and the traced run: converged trials
   output the catalog predicate's value, budget runs spend exactly
   their budget. *)
let trial_checks c spec (trials : Ensemble.trial array) =
  let expected = Predicate.eval spec c.input in
  let wrong =
    Array.fold_left
      (fun n (t : Ensemble.trial) ->
        let ok =
          match c.expect with
          | Whole_budget steps -> t.steps = steps
          | Predicate_value -> (not t.converged) || t.output = Some expected
        in
        if ok then n else n + 1)
      0 trials
  in
  ( wrong,
    [
      expect_int (c.label ^ " trials") ~expected:c.trials (Array.length trials);
      check
        (match c.expect with
         | Whole_budget _ -> c.label ^ ": every trial runs its whole step budget"
         | Predicate_value -> c.label ^ ": converged trials output the predicate's value")
        (wrong = 0)
        (Printf.sprintf "%d of %d trials wrong" wrong (Array.length trials));
    ] )

let steps ~seed ~tmp:_ =
  List.map
    (fun c ->
      let p, spec = catalog c.protocol in
      {
        name = c.label;
        ops = c.trials;
        run =
          (fun () ->
            let e = Ensemble.run_input ~jobs:1 ~backend:c.backend ~seed ~trials:c.trials p c.input in
            fun () ->
              let trials = e.Ensemble.trials in
              let wrong, checks = trial_checks c spec trials in
              (* trial 0 replayed alone on its own stream *)
              let t0, _ = run_trial c p ~seed 0 in
              let replay =
                check (c.label ^ ": trial 0 replays alone")
                  (Array.length trials > 0 && trial_digest t0 = trial_digest trials.(0))
                  (trial_digest t0)
              in
              verdict ~failed:wrong ~ops:c.trials ~digest:(digest trials) (checks @ [ replay ]));
      })
    cases

(* The protocol minus its identity transitions: the uniform scheduler
   then counts an interaction that would fire one as null. For a
   deterministic protocol both versions draw the same random numbers,
   so the trajectories must agree step for step. *)
let strip_identities p =
  let open Population in
  make ~name:(p.name ^ "-no-identity") ~states:p.states
    ~transitions:
      (Array.to_list p.transitions
      |> List.filter (fun t -> t.pre <> t.post)
      |> List.map (fun { pre = a, b; post = c, d } -> (a, b, c, d)))
    ~leaders:
      (List.filter_map
         (fun s -> if Mset.get p.leaders s > 0 then Some (s, Mset.get p.leaders s) else None)
         (List.init (num_states p) Fun.id))
    ~inputs:(Array.to_list (Array.mapi (fun i x -> (x, p.input_map.(i))) p.input_vars))
    ~output:p.output ()

let sp_sim = Spans.name "sim.trial"
let sp_gillespie = Spans.name "gillespie.trial"
let sp_null = Spans.name "sim.null_replay"

let traced ~seed ~tmp:_ =
  let pool_busy = ref 0.0 and pool_capacity = ref 0.0 and pool_chunks = ref 0 and pool_errors = ref 0 in
  let trials_run = ref 0 in
  let sim_steps = ref 0 and nulls = ref 0 and null_shares = ref [] in
  let calls = ref [] and wall = ref 0.0 in
  List.iter
    (fun c ->
      let p, spec = catalog c.protocol in
      let uniform = match c.backend with Ensemble.Uniform _ -> true | _ -> false in
      let results = Array.make c.trials None in
      let steps_before = Layers.counter "sim.steps" in
      let t0 = now_s () in
      let stats =
        Pool.run ~jobs:1 ~chunk:1 ~name:"ensemble" ~tasks:c.trials (fun ~lo ~hi ->
            for i = lo to hi - 1 do
              results.(i) <-
                Some
                  (Spans.with_span (if uniform then sp_sim else sp_gillespie) ~req:i (fun () ->
                       run_trial c p ~seed i))
            done)
      in
      let call_wall = now_s () -. t0 in
      wall := !wall +. call_wall;
      let case_steps = Layers.counter "sim.steps" - steps_before in
      sim_steps := !sim_steps + case_steps;
      pool_busy := !pool_busy +. Array.fold_left ( +. ) 0.0 stats.Pool.busy_s;
      pool_capacity := !pool_capacity +. (float_of_int stats.Pool.jobs *. stats.Pool.wall_s);
      pool_chunks := !pool_chunks + Array.fold_left ( + ) 0 stats.Pool.chunks;
      pool_errors := !pool_errors + stats.Pool.task_errors;
      trials_run := !trials_run + c.trials;
      let runs = Array.map Option.get results in
      let trials = Array.map fst runs in
      (* effective nulls: the same trials on the identity-free protocol *)
      let nulls_before = !nulls in
      let replay_ok =
        (not uniform)
        ||
        let stripped = strip_identities p in
        Population.is_deterministic p
        && Array.for_all
             (fun ((t : Ensemble.trial), final) ->
               let before = Layers.counter "sim.null_interactions" in
               let r, final' =
                 Spans.with_span sp_null ~req:t.index (fun () -> run_trial c stripped ~seed t.index)
               in
               nulls := !nulls + Layers.counter "sim.null_interactions" - before;
               r.steps = t.steps && Mset.equal final final')
             runs
      in
      if uniform then
        null_shares :=
          ( c.label ^ " effective null share",
            Printf.sprintf "%.4f"
              (Layers.ratio (float_of_int (!nulls - nulls_before)) (float_of_int case_steps)) )
          :: !null_shares;
      let wrong, checks = trial_checks c spec trials in
      let replay =
        if uniform then
          [ check (c.label ^ ": identity-free replay follows the same trajectories") replay_ok "" ]
        else []
      in
      calls :=
        {
          call = c.label;
          wall_s = call_wall;
          ops = c.trials;
          failed = wrong + (if replay_ok then 0 else 1);
          checks = checks @ replay;
          digest = digest trials;
        }
        :: !calls)
    cases;
  let wall = !wall in
  let layers rows layers ~share:_ =
    let self = self_s rows in
    Layers.seti layers "sim.steps" !sim_steps;
    Layers.set layers "sim.effective_null_share"
      (Layers.ratio (float_of_int !nulls) (float_of_int !sim_steps));
    Layers.set layers "sim.interactions_per_s" (Layers.ratio (float_of_int !sim_steps) (self sp_sim));
    Layers.copy_counters layers [ "gillespie.steps"; "gillespie.propensity_updates" ];
    Layers.set layers "gillespie.reactions_per_s"
      (Layers.ratio (float_of_int (Layers.counter "gillespie.steps")) (self sp_gillespie));
    Layers.seti layers "ensemble.trials" !trials_run;
    Layers.set layers "pool.ensemble.utilization" (Layers.ratio !pool_busy !pool_capacity);
    Layers.seti layers "pool.ensemble.chunks" !pool_chunks;
    Layers.seti layers "pool.ensemble.task_errors" !pool_errors;
    ("sim.null_interactions (identity-free replay)", string_of_int !nulls)
    :: ("sim.null_replay_s", Printf.sprintf "%.4f" (self sp_null))
    :: List.rev !null_shares
  in
  [ { t_calls = List.rev !calls; t_wall_s = wall; t_layers = layers } ]

let sampled = [ sp_sim; sp_gillespie ]
let requests = sampled
