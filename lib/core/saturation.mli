(** The saturation construction of Section 5.3 (Lemmas 5.3 and 5.4):
    for a leaderless protocol with [n] states in which every state is
    coverable, the input [3^j] (some [j <= n]) can reach a 1-saturated
    configuration — one populating every state — via an explicitly
    constructed sequence of length [(3^j - 1) / 2].

    The witness scales: executing the sequence [m] times from input
    [m·3^j] reaches the [m]-saturated configuration [m·C], which is how
    Theorem 5.9 obtains the [2|π|]-saturated configuration [D]. *)

type witness = private {
  protocol : Population.t;
  levels : int;        (** the [j] of Lemma 5.4 *)
  input : int;         (** [3^levels] *)
  sigma : int list;    (** transition indices; [|sigma| = (3^j - 1)/2] *)
  result : Mset.t;     (** the 1-saturated configuration reached *)
}

val find : Population.t -> (witness, string) result
(** Errors: protocol has leaders, several input variables, or states
    {!Transform.coverable_states} leaves out (listed in the message). *)

val replay_scaled : witness -> int -> Mset.t option
(** [replay_scaled w m] fires [sigma] [m] times from [IC(m·3^j)];
    returns the final configuration (equal to [m·result] when the
    witness is valid, by monotonicity). *)

val check : witness -> bool
(** Replays the witness and verifies 1-saturation and the length bound. *)
