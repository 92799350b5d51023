(** Multicore Monte-Carlo simulation ensembles.

    Fans a batch of independent simulation trials across a fixed pool of
    OCaml 5 [Domain]s, with a deterministic seeding model: trial [i]
    always runs on the [i]-th {!Splitmix64.split} of a master generator
    [Splitmix64.create seed]. Trials are handed to domains one at a
    time off a shared atomic counter (self-scheduling, so uneven trial
    lengths don't idle domains), and every per-trial record
    is written back into slot [i] of the result array. Consequently the
    per-trial records — and every aggregate derived from them — are
    bit-identical regardless of [jobs] and of how the OS schedules the
    domains; only {!t.wall} varies.

    Both simulation backends share the trial-spec interface: the
    discrete uniform-scheduler {!Simulator} and the continuous-time
    {!Gillespie} SSA. *)

type backend =
  | Uniform of { max_steps : int; quiet_window : float }
      (** {!Simulator.run}; parallel time is [last_change / population]. *)
  | Gillespie of { max_steps : int; quiet_time : float; rate : float }
      (** {!Gillespie.run}; parallel time is the continuous
          [last_change]. *)

val uniform : ?max_steps:int -> ?quiet_window:float -> unit -> backend
(** Defaults match {!Simulator.run}: [max_steps = 50_000_000],
    [quiet_window = 64.0]. *)

val gillespie : ?max_steps:int -> ?quiet_time:float -> ?rate:float -> unit -> backend
(** Defaults match {!Gillespie.run}: [max_steps = 5_000_000],
    [quiet_time = 64.0], [rate = 1.0]. *)

type trial = {
  index : int;           (** position in the batch; determines the RNG stream *)
  steps : int;           (** interactions (uniform) / reactions (SSA) executed *)
  parallel_time : float; (** convergence estimate of this trial *)
  output : bool option;  (** consensus output when the trial stopped *)
  converged : bool;
}

type t = {
  backend : backend;
  population : int;
  jobs : int;            (** domains actually used (clamped to the batch size) *)
  trials : trial array;  (** in trial-index order, independent of [jobs] *)
  wall : float;          (** wall-clock seconds for the whole batch; the one
                             field outside the determinism guarantee *)
}

val run_input :
  ?jobs:int ->
  ?backend:backend ->
  seed:int ->
  trials:int ->
  Population.t ->
  int array ->
  t
(** [run_input ~jobs ~seed ~trials p v] executes [trials] independent
    simulations of [p] from [IC(v)] on [jobs] domains (default 1;
    clamped to [max 1 (min jobs trials)]), each claiming one trial at
    a time. [backend] defaults to [uniform ()].

    [t.trials] is in index order, and trial [i] is identical to the
    same-index trial of any other batch with the same [seed], [p] and
    [v] (per-index RNG streams), whatever [jobs] and [trials]. A trial that raises cancels the batch and the exception
    re-raises after every domain is joined ({!Pool.run}'s [`Fail]).
    @raise Invalid_argument when [trials < 0], or when [trials > 0] and
    the population [IC(v)] has fewer than 2 agents. *)

val rng_for_trial : seed:int -> int -> Splitmix64.t
(** The generator trial [i] of a [seed]-ensemble runs on: the [(i+1)]-th
    split of [Splitmix64.create seed]. Exposed so external code (and
    tests) can reproduce any single trial in isolation. *)

(** {2 Aggregates}

    All of these are pure functions of [t.trials] and therefore
    independent of [jobs]. *)

val parallel_times : t -> float list
(** Convergence estimates of the converged trials, in trial order. *)

val majority_output : t -> bool option
(** [Some b] when strictly more trials output [b] than [not b];
    [None] on a tie (including the all-undecided ensemble). *)

val summary : t -> string
(** A multi-line aggregate: verdict counts, {!Stats.summary} of the
    parallel times, and a {!Stats.histogram} of their distribution.
    Byte-identical across [jobs] for a fixed seed/spec ([wall] and
    [jobs] are deliberately excluded). *)
