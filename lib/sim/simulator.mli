(** Stochastic simulation under the uniform random scheduler.

    At each step an (unordered) pair of distinct agents is selected
    uniformly at random and one of the transitions matching their
    states fires (uniformly among them, so nondeterministic protocols
    are supported). Parallel time is the number of interactions
    divided by the number of agents — the standard convention the
    paper's introduction uses when quoting [O(n log n)] convergence.

    {!run} is the step-clock instance of {!Event_kernel}: it skips each
    run of null interactions (pairs without a transition, or an
    identity drawn) with one geometric draw, with the same law as
    stepping through them one by one. The counter
    [sim.null_interactions] adds up those nulls; [sim.steps] counts
    every interaction, nulls included.

    Simulation cannot prove stabilisation (that is {!Fair_semantics}'s
    job); {!run} instead stops once the consensus status has been
    quiet for a configurable window and reports the last time the
    status changed as the convergence estimate. *)

type run_result = {
  steps : int;            (** total interactions executed *)
  last_change : int;      (** last step at which the consensus status changed *)
  output : bool option;   (** consensus output of the final configuration *)
  final : Mset.t;
  converged : bool;       (** false iff the step budget ran out while unstable *)
}

val run :
  ?max_steps:int ->
  ?quiet_window:float ->
  rng:Splitmix64.t ->
  Population.t ->
  Mset.t ->
  run_result
(** [run ~rng p c0] simulates from configuration [c0] (size >= 2)
    until the consensus status (output [0], [1] or undefined) has not
    changed for [quiet_window] parallel-time units (default [64.0]),
    or [max_steps] interactions (default [50_000_000]) elapse. *)

val run_input :
  ?max_steps:int ->
  ?quiet_window:float ->
  rng:Splitmix64.t ->
  Population.t ->
  int array ->
  run_result
(** [run_input ~rng p v] simulates from [IC(v)]. *)

val parallel_time : run_result -> population:int -> float
(** Convergence estimate of a run in parallel-time units:
    [last_change / population]. *)
