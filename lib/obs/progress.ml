(* Auto (the default) defers to a TTY check of the channel: progress on
   an interactive stderr, silence when redirected — CI logs and piped
   output stay clean with no flag needed. [Forced] comes from
   --progress / --no-progress (or tests). *)
type mode = Auto | Forced of bool

let mode = ref Auto
let set_enabled b = mode := Forced b
let set_auto () = mode := Auto

type t = {
  label : string;
  out : out_channel;
  tty : bool;
  interval_ns : int64;
  started_ns : int64;
  mutable last_ns : int64;
  mutable printed : int;
}

let is_tty oc =
  try Unix.isatty (Unix.descr_of_out_channel oc)
  with Unix.Unix_error _ | Sys_error _ | Invalid_argument _ -> false

(* Checked once per process: [Configgraph] makes one reporter per
   exploration, and a census runs hundreds of thousands of them. *)
let stderr_tty = is_tty stderr

let create ?(interval_s = 1.0) ?(out = stderr) label =
  let now = Clock.now_ns () in
  {
    label;
    out;
    tty = (if out == stderr then stderr_tty else is_tty out);
    interval_ns = Int64.of_float (interval_s *. 1e9);
    started_ns = now;
    last_ns = now;
    printed = 0;
  }

let elapsed_s t = Clock.elapsed_s t.started_ns
let lines t = t.printed
let active t = match !mode with Forced b -> b | Auto -> t.tty

let print t msg =
  let m = msg () in
  (* the event log gets every line that would print, so a redirected
     run instrumented with --events still records its progress *)
  if Events.enabled () then
    Events.emit "progress"
      ~data:
        [
          ("label", Json.String t.label);
          ("msg", Json.String m);
          ("elapsed_s", Json.Float (elapsed_s t));
        ];
  if active t then begin
    t.printed <- t.printed + 1;
    Printf.fprintf t.out "[%s %.1fs] %s\n%!" t.label (elapsed_s t) m
  end

let tick t msg =
  if active t || Events.enabled () then begin
    let now = Clock.now_ns () in
    if Int64.sub now t.last_ns >= t.interval_ns then begin
      t.last_ns <- now;
      print t msg
    end
  end

let finish t msg =
  if (active t || Events.enabled ()) && t.printed > 0 then print t msg
