(** The distributed scan's wire protocol: one [ppdist/v3] frame per
    newline-terminated line, over any stream file descriptor — a
    socketpair to a forked worker or a TCP connection to a remote one.
    Reusing {!Obs.Json} keeps the whole protocol dependency-free.

    The conversation is deliberately small:

    - worker opens with {!Hello};
    - coordinator replies {!Welcome}, carrying the {e complete} scan
      configuration — the worker derives its whole plan (sample codes
      included) from it, so the two processes cannot disagree on what a
      chunk index means;
    - coordinator sends {!Grant} ranges; worker streams back one
      {!Result} per chunk, interleaved with {!Heartbeat}s (and, when
      the Welcome asked for telemetry, batched {!Events});
    - coordinator closes the scan with {!Shutdown}.

    Every [Grant]/[Result] carries the coordinator's ledger {e epoch}:
    results stamped with a previous life's epoch are recognisably stale
    and dropped (see {!Obs.Checkpoint}).

    {b Framing.} Each line is ["#3 <len> <crc32-hex> <payload>\n"]
    where [payload] is the message's JSON object, [len] its byte length
    and the checksum CRC-32 (IEEE 802.3, {!crc32}). This is the only
    line a reader decodes. Any other line — a frame truncated mid-line
    or bit-flipped in transit, a bare JSON line, noise — is {e counted}
    ([dist.corrupt_frames], {!corrupt_count}) and skipped, never fatal:
    whatever it carried is replaced by the recovery machinery above the
    wire (lease reclaim for a lost [Grant]/[Result], the next beat for a
    lost [Heartbeat]).

    {b Decoding is strict about versions, lenient about extras.} A
    frame the CRC vouches for must decode to a known message kind with
    every required field, or the reader raises {!Protocol_error}.
    Fields a message does not know are skipped. *)

type msg =
  | Hello of { worker : string; pid : int; host : string; sent_s : float }
      (** the worker's hostname, and its absolute monotonic-clock send
          time: the first clock-offset sample *)
  | Welcome of {
      config : Obs.Json.t;  (** the full scan configuration object *)
      config_hash : string;
      epoch : int;
      total_chunks : int;
      telemetry : bool;
          (** the coordinator wants metric deltas on heartbeats and
              batched {!Events} *)
    }
  | Grant of { lo_chunk : int; hi_chunk : int; epoch : int }
      (** work order: run chunks [lo_chunk .. hi_chunk - 1] *)
  | Result of { chunk : int; epoch : int; state : Obs.Json.t }
      (** one chunk's serialised accumulator *)
  | Heartbeat of {
      worker : string;
      sent_s : float;
          (** absolute monotonic send time — one clock-offset sample per
              beat *)
      metrics : Obs.Json.t option;
          (** the {!Obs.Metrics.diff} since the worker's previous beat,
              as {!Obs.Metrics.to_json_value} — compact because
              unchanged entries are dropped; absent when telemetry is
              off or nothing changed *)
    }
  | Events of { worker : string; origin_s : float; lines : string list }
      (** a batch of the worker's ppevents record lines, verbatim.
          [origin_s] is the worker's sink origin on its absolute
          monotonic clock ({!Obs.Events.origin_s}), so the coordinator
          can realign each line's [ts_s] with its clock-offset
          estimate. *)
  | Shutdown

exception Protocol_error of string
(** A CRC-valid frame whose payload is not JSON, names an unknown
    message kind, or lacks a required field. The peer is broken, not
    merely noisy: drop the connection. (A line that fails the frame
    checks is a {!corrupt_count} tick and never raises.) *)

val to_json : msg -> Obs.Json.t

val of_json : Obs.Json.t -> (msg, string) result
(** [Error] names the unknown kind or the missing field. *)

val crc32 : string -> int
(** CRC-32 of a byte string (IEEE 802.3, polynomial [0xEDB88320],
    reflected): [crc32 "" = 0], [crc32 "123456789" = 0xCBF43926]. *)

val send : ?chaos:Chaos.t -> Unix.file_descr -> msg -> unit
(** Write one v3 frame, looping over partial writes. [chaos] routes
    the frame through a fault-injection stream first — the frame may
    be dropped, duplicated, reordered or damaged ({!Chaos.apply});
    production sends pass no [chaos] and pay nothing.
    @raise Unix.Unix_error ([EPIPE] when the peer is gone — the caller
    treats that as a dead worker, not a crash). *)

(** {2 Buffered reading}

    A [reader] owns the receive buffer of one fd and cuts it into
    complete lines; partial lines wait for the next read. *)

type reader

val reader : Unix.file_descr -> reader
val reader_fd : reader -> Unix.file_descr

val corrupt_count : reader -> int
(** Lines this reader skipped for failing the frame checks (also
    accumulated in the [dist.corrupt_frames] metric). *)

val drain : reader -> msg list * [ `Open | `Eof | `Broken of string ]
(** One non-blocking-ish step for a select loop: a single [Unix.read]
    (the caller knows the fd is readable, so it will not block),
    returning every message completed by it and [`Eof] when the peer
    closed the connection (EOF — a SIGKILLed worker's socket reads as
    EOF, which is exactly how worker death is detected), or
    [`Broken e] when a CRC-valid frame did not decode: the messages
    are then the frames before it, for the caller to handle before it
    drops the connection. *)

val recv : reader -> msg option
(** Blocking receive of the next single message; [None] on EOF. The
    worker side's main loop.
    @raise Protocol_error on a CRC-valid frame that does not decode,
    once every frame that arrived before it has been returned. *)

val recv_within :
  reader -> timeout_s:float -> [ `Msg of msg | `Eof | `Timeout ]
(** {!recv} with a monotonic-clock deadline: waits at most [timeout_s]
    seconds (0 polls) for a complete message. [`Timeout] is how an
    idle worker discovers it has been silent too long and owes the
    coordinator a heartbeat — under chaos, a dropped [Grant] would
    otherwise leave it blocked and indistinguishable from dead.
    @raise Protocol_error as {!recv}. *)

val select_eintr : Unix.file_descr list -> float -> Unix.file_descr list
(** [Unix.select fds [] [] timeout] that retries [EINTR] with the
    remaining time recomputed on the monotonic clock — a signal (timer,
    [SIGCHLD]) neither tears down the event loop nor stretches its
    deadline. Negative timeout blocks indefinitely. *)
