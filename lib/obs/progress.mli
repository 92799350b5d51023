(** Throttled progress reporting for long-running searches.

    A reporter prints at most one line per [interval_s] (default 1s),
    so a tick can sit inside a tight search loop: when reporting is
    off a tick is a load and a branch, and when on but not yet due it
    is one monotonic-clock read. The message is a thunk, evaluated
    only when a line is actually produced.

    Lines go to stderr (configurable), keeping stdout byte-comparable
    across runs. The default mode is {e automatic}: a reporter prints
    only when its output channel is a TTY, so redirected and CI logs
    stay clean with no flag. [--progress] / [--no-progress] force the
    choice globally. A reporter stays silent until its first interval
    elapses, so fast runs produce no output at all.

    When the {!Events} log is active, every line that falls due is
    also recorded as a ["progress"] event — including on non-TTY runs
    where nothing is printed. *)

val set_enabled : bool -> unit
(** Force progress on or off globally, overriding TTY detection
    ([--progress] / [--no-progress]). *)

val set_auto : unit -> unit
(** Return to the default automatic mode (print iff the reporter's
    channel is a TTY: stderr is checked once per process, any other
    channel at {!create}). *)

type t

val create : ?interval_s:float -> ?out:out_channel -> string -> t
(** [create label] makes a reporter printing
    ["[<label> <elapsed>s] <message>"] lines to [out] (default
    stderr). *)

val tick : t -> (unit -> string) -> unit
(** Print the message if reporting is active for this reporter and at
    least [interval_s] has elapsed since the last line (or since
    {!create}). *)

val finish : t -> (unit -> string) -> unit
(** Print a final line, but only when at least one [tick] line was
    printed — runs short enough to have stayed silent remain silent. *)

val lines : t -> int
(** Lines printed so far (test helper). *)
