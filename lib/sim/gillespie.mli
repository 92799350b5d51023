(** Continuous-time simulation by Gillespie's stochastic simulation
    algorithm, reading the protocol as a chemical reaction network (the
    paper's introduction: agents are molecules, transitions are
    bimolecular reactions).

    Each non-identity transition [t] with precondition [{a, b}] has
    propensity [#a·#b] (or [#a·(#a-1)/2] when [a = b]) scaled by
    [rate / population]; with [rate = 1] the expected continuous time
    agrees with the discrete simulator's parallel time up to the usual
    constant. Identity transitions are silent and are skipped — when no
    productive reaction is enabled the mixture is inert and the run
    stops.

    {!run} is the continuous-clock instance of {!Event_kernel}: integer
    propensities, updated only for the reactions that read a state a
    firing changed ([gillespie.propensity_updates] counts those
    recomputations), and one integer draw to pick the reaction. *)

type run_result = {
  time : float;          (** continuous time when the run stopped *)
  steps : int;           (** productive reactions fired *)
  last_change : float;   (** time of the last consensus-status change *)
  output : bool option;
  final : Mset.t;
  converged : bool;      (** quiet for [quiet_time], or inert *)
}

val run :
  ?max_steps:int ->
  ?quiet_time:float ->
  ?rate:float ->
  rng:Splitmix64.t ->
  Population.t ->
  Mset.t ->
  run_result
(** Defaults: [max_steps = 5_000_000], [quiet_time = 64.0],
    [rate = 1.0]. *)

val run_input :
  ?max_steps:int ->
  ?quiet_time:float ->
  ?rate:float ->
  rng:Splitmix64.t ->
  Population.t ->
  int array ->
  run_result
