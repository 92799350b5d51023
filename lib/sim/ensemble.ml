let m_batches = Obs.Metrics.counter "ensemble.batches"
let m_trials = Obs.Metrics.counter "ensemble.trials"
let m_trial_steps = Obs.Metrics.histogram "ensemble.trial_steps"

type backend =
  | Uniform of { max_steps : int; quiet_window : float }
  | Gillespie of { max_steps : int; quiet_time : float; rate : float }

let uniform ?(max_steps = 50_000_000) ?(quiet_window = 64.0) () =
  Uniform { max_steps; quiet_window }

let gillespie ?(max_steps = 5_000_000) ?(quiet_time = 64.0) ?(rate = 1.0) () =
  Gillespie { max_steps; quiet_time; rate }

type trial = {
  index : int;
  steps : int;
  parallel_time : float;
  output : bool option;
  converged : bool;
}

type t = {
  backend : backend;
  population : int;
  jobs : int;
  trials : trial array;
  wall : float;
}

(* Trial [i] runs on the [i]-th split of the master generator,
   computed from [seed] and [i] alone, so its stream does not depend on
   the number of trials, the number of domains, or scheduling order. *)
let rng_for_trial ~seed i =
  if i < 0 then invalid_arg "Ensemble.rng_for_trial: i >= 0 required";
  Splitmix64.nth_split ~seed i

let run_trial backend p c0 ~population index rng =
  match backend with
  | Uniform { max_steps; quiet_window } ->
    let r = Simulator.run ~max_steps ~quiet_window ~rng p c0 in
    {
      index;
      steps = r.Simulator.steps;
      parallel_time = Simulator.parallel_time r ~population;
      output = r.Simulator.output;
      converged = r.Simulator.converged;
    }
  | Gillespie { max_steps; quiet_time; rate } ->
    let r = Gillespie.run ~max_steps ~quiet_time ~rate ~rng p c0 in
    {
      index;
      steps = r.Gillespie.steps;
      parallel_time = r.Gillespie.last_change;
      output = r.Gillespie.output;
      converged = r.Gillespie.converged;
    }

(* trials per pool claim *)
let chunk = 1

let run_input ?(jobs = 1) ?(backend = uniform ()) ~seed ~trials p v =
  let c0 = Population.initial_config p v in
  if trials < 0 then invalid_arg "Ensemble.run_input: trials >= 0 required";
  let population = Mset.size c0 in
  if trials > 0 && population < 2 then
    invalid_arg "Ensemble.run_input: population size >= 2 required";
  let results = Array.make trials None in
  (* Slot [i] of [results] is written by exactly one domain; the joins
     inside [Pool.run] publish the writes to this driver. Under its
     default [`Fail] policy [Pool.run] either raises or fills every
     slot. *)
  let stats =
    Pool.run ~jobs ~chunk ~name:"ensemble" ~tasks:trials (fun ~lo ~hi ->
        for i = lo to hi - 1 do
          let t =
            run_trial backend p c0 ~population i (rng_for_trial ~seed i)
          in
          Obs.Metrics.observe m_trial_steps (float_of_int t.steps);
          results.(i) <- Some t
        done)
  in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr m_batches;
    Obs.Metrics.add m_trials trials
  end;
  let trials = Array.map Option.get results in
  { backend; population; jobs = stats.Pool.jobs; trials; wall = stats.Pool.wall_s }

let parallel_times e =
  Array.to_list e.trials
  |> List.filter_map (fun t -> if t.converged then Some t.parallel_time else None)

let outputs e =
  Array.fold_left
    (fun (acc, rej, und) t ->
      match t.output with
      | Some true -> (acc + 1, rej, und)
      | Some false -> (acc, rej + 1, und)
      | None -> (acc, rej, und + 1))
    (0, 0, 0) e.trials

let majority_output e =
  let acc, rej, _ = outputs e in
  if acc > rej then Some true else if rej > acc then Some false else None

let summary e =
  let n = Array.length e.trials in
  let converged =
    Array.fold_left (fun c t -> if t.converged then c + 1 else c) 0 e.trials
  in
  let acc, rej, und = outputs e in
  let ts = parallel_times e in
  let buf = Buffer.create 256 in
  Printf.bprintf buf "trials=%d converged=%d accept=%d reject=%d undecided=%d\n"
    n converged acc rej und;
  Printf.bprintf buf "parallel time: %s\n" (Stats.summary ts);
  List.iter
    (fun (lo, hi, count) ->
      let bar = String.make (Stdlib.min 50 count) '#' in
      Printf.bprintf buf "  [%10.2f, %10.2f) %4d %s\n" lo hi count bar)
    (Stats.histogram ~bins:8 ts);
  Buffer.contents buf
