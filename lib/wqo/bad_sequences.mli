(** Controlled bad sequences: the combinatorics behind Lemma 4.4.

    A sequence [v_0, v_1, …] over [N^d] is {e bad} if it contains no
    ascending pair [v_i <= v_j] ([i < j]), and [(i + delta)]-controlled
    if [‖v_i‖₁ <= i + delta]. Figueira et al. [19] bound the length of
    such sequences by functions of the Fast Growing Hierarchy; this
    module searches for the longest ones in small dimension, exhibiting
    the explosive growth that drives the paper's Theorem 4.5. *)

val max_length_exact : dim:int -> delta:int -> budget:int -> int option
(** Length of the longest [(i + delta)]-controlled bad sequence over
    [N^dim], by exhaustive depth-first search; [None] if the search
    exceeds [budget] explored nodes. Practical for [dim <= 2] and small
    [delta] ([dim = 1] is [delta + 1]; [dim = 2] grows exponentially). *)

val greedy_sequence : dim:int -> delta:int -> max_len:int -> Intvec.t list
(** A long (not necessarily optimal) controlled bad sequence built by a
    greedy strategy: always append the allowed vector that is largest
    in the reverse-lexicographic order among those minimising future
    obstruction. Stops at [max_len] or when stuck. *)

val descending_staircase : delta:int -> max_len:int -> Intvec.t list
(** The classical dimension-2 lower-bound witness (McAloon [24]): walk
    the first coordinate down from [delta]; at each level spin the
    second coordinate down from its control bound. Provably bad and
    [(i + delta)]-controlled, of length exponential in [delta]. *)

val is_controlled_bad : delta:int -> Intvec.t list -> bool
(** Checks both badness and the control condition: the test oracle for
    the sequences the searches return. *)
