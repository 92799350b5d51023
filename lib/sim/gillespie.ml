let m_runs = Obs.Metrics.counter "gillespie.runs"
let m_steps = Obs.Metrics.counter "gillespie.steps"
let m_updates = Obs.Metrics.counter "gillespie.propensity_updates"
let m_inert = Obs.Metrics.counter "gillespie.inert_runs"

type run_result = {
  time : float;
  steps : int;
  last_change : float;
  output : bool option;
  final : Mset.t;
  converged : bool;
}

let run ?(max_steps = 5_000_000) ?(quiet_time = 64.0) ?(rate = 1.0) ~rng p c0 =
  let total = Mset.size c0 in
  if total < 2 then invalid_arg "Gillespie.run: population size >= 2 required";
  (* the uniform [rate / population] factor scales every propensity *)
  let scale = rate /. float_of_int total in
  let o = Event_kernel.run (Continuous { max_steps; quiet_time; scale }) ~rng p c0 in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr m_runs;
    Obs.Metrics.add m_steps o.fired;
    Obs.Metrics.add m_updates o.updates;
    if o.inert then Obs.Metrics.incr m_inert
  end;
  {
    time = o.time;
    steps = o.fired;
    last_change = o.last_change;
    output = o.output;
    final = o.final;
    converged = o.converged;
  }

let run_input ?max_steps ?quiet_time ?rate ~rng p v =
  run ?max_steps ?quiet_time ?rate ~rng p (Population.initial_config p v)
