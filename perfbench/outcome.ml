(* What one workload process reports: per timed call its wall time, the
   operations it attempted and failed, its output checks and a digest
   of its outputs (the traced run must reproduce the digest exactly). *)

type check = { what : string; ok : bool; detail : string }

let check what ok detail = { what; ok; detail }

let expect_int what ~expected got =
  check what (expected = got) (Printf.sprintf "expected %d, got %d" expected got)

type call = {
  call : string;
  wall_s : float;
  ops : int;  (** operations attempted: code verdicts, tasks or trials *)
  failed : int;  (** aborted verdicts, failed chunks, failed checks *)
  checks : check list;
  digest : string;
}

(* The checked part of a call, computed after its clock stopped. *)
type verdict = { v_ops : int; v_failed : int; v_checks : check list; v_digest : string }

let verdict ?(failed = 0) ~ops ~digest checks =
  {
    v_ops = ops;
    v_failed =
      failed + List.length (List.filter (fun c -> not c.ok) checks);
    v_checks = checks;
    v_digest = digest;
  }

(* A timed step: [run] performs the call and returns the thunk that
   checks its outputs, so checking stays outside the clock. *)
type step = { name : string; ops : int; run : unit -> unit -> verdict }

let catalog name =
  match Catalog.build name with
  | Some e -> (e.Catalog.build (), e.Catalog.spec)
  | None -> invalid_arg ("perfbench: no catalog protocol " ^ name)

let now_s () = Int64.to_float (Obs.Clock.now_ns ()) /. 1e9

let time_step s =
  let t0 = now_s () in
  match s.run () with
  | check_outputs ->
    let wall_s = now_s () -. t0 in
    let v = check_outputs () in
    {
      call = s.name;
      wall_s;
      ops = v.v_ops;
      failed = v.v_failed;
      checks = v.v_checks;
      digest = v.v_digest;
    }
  | exception e ->
    let wall_s = now_s () -. t0 in
    {
      call = s.name;
      wall_s;
      ops = s.ops;
      failed = s.ops;
      checks = [ check "call completes" false (Printexc.to_string e) ];
      digest = "";
    }

(* Linear interpolation between the closest ranks of a sorted sample. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then sorted.(n - 1)
    else sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))

type dist = { samples : int; p50 : float; tail : float; tail_pct : float }

(* The median of a duration sample, and the highest of p75/p90/p99/p99.9
   that still has at least ten samples beyond it (the median itself when
   fewer than twenty samples exist). *)
let dist samples =
  let sorted = Array.of_list samples in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let tail_pct =
    List.fold_left
      (fun acc p ->
        if float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0 then p else acc)
      50.0 [ 75.0; 90.0; 99.0; 99.9 ]
  in
  {
    samples = n;
    p50 = quantile sorted 0.5;
    tail = quantile sorted (tail_pct /. 100.0);
    tail_pct;
  }

(* Self seconds of a span name in a summary. *)
let self_s rows sp = float_of_int rows.(sp).Spans.self_ns /. 1e9

let dist_line (d : dist) ~scale =
  Printf.sprintf "p50 %.6g, tail %.6g (p%g of %d)" (d.p50 *. scale) (d.tail *. scale)
    d.tail_pct d.samples

let peak_rss_kb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
          | _ -> go ()
          | exception End_of_file -> 0
        in
        go ())
  with Sys_error _ -> 0

(* A traced part of a workload: its calls (checked like the timed
   ones), their wall, and [layers], which fills in the part's per-layer
   metrics once the spans are summarised and returns extra report lines;
   [share] turns self seconds into a share of the workload's
   core-seconds. *)
type traced = {
  t_calls : call list;
  t_wall_s : float;
  t_layers : Spans.row array -> Layers.t -> share:(float -> float) -> (string * string) list;
}
