(* Engine counters, registered once. Mutations are guarded by the
   global flag inside Obs.Metrics; totals are published once per run. *)
let m_runs = Obs.Metrics.counter "sim.runs"
let m_steps = Obs.Metrics.counter "sim.steps"
let m_nulls = Obs.Metrics.counter "sim.null_interactions"
let m_converged = Obs.Metrics.counter "sim.converged_runs"

type run_result = {
  steps : int;
  last_change : int;
  output : bool option;
  final : Mset.t;
  converged : bool;
}

let run ?(max_steps = 50_000_000) ?(quiet_window = 64.0) ~rng p c0 =
  let total = Mset.size c0 in
  if total < 2 then invalid_arg "Simulator.run: population size >= 2 required";
  let quiet_steps = int_of_float (quiet_window *. float_of_int total) |> Stdlib.max 1 in
  let o = Event_kernel.run (Steps { max_steps; quiet_steps }) ~rng p c0 in
  let steps = int_of_float o.time in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr m_runs;
    Obs.Metrics.add m_steps steps;
    Obs.Metrics.add m_nulls (steps - o.fired);
    if o.converged then Obs.Metrics.incr m_converged
  end;
  {
    steps;
    last_change = int_of_float o.last_change;
    output = o.output;
    final = o.final;
    converged = o.converged;
  }

let run_input ?max_steps ?quiet_window ~rng p v =
  run ?max_steps ?quiet_window ~rng p (Population.initial_config p v)

let parallel_time r ~population =
  float_of_int r.last_change /. float_of_int population
