(* In-memory span recorder for the traced run.

   Every span is four ints — start and stop on the monotonic clock, a
   packed (name, parent) word and a request id (the code, chunk, trial
   or task the span works for) — appended to a buffer owned by the
   recording domain, so recording takes no lock and allocates only the
   open-span stack cell. Nothing is written while the workload runs:
   {!dump} writes the spans once at exit, and {!summarise} derives
   per-name counts, total and self times from them.

   Self time is a span's duration minus the part of it its children
   cover. Children on the parent's own domain run one after another
   inside it, so their durations add; children on other domains (pool
   chunks under the span that started the pool) overlap, so their
   intervals are merged first. *)

let enabled = ref false

(* ---------------------------------------------------------- names *)

let names : string array ref = ref [||]
let names_lock = Mutex.create ()

(* Register a span name. Call at module initialisation, before any
   domain records. *)
let name s =
  Mutex.protect names_lock (fun () ->
      match Array.find_index (String.equal s) !names with
      | Some i -> i
      | None ->
        names := Array.append !names [| s |];
        Array.length !names - 1)

let name_of i = !names.(i)

(* ---------------------------------------------------------- buffers *)

let block_spans = 1 lsl 16
let fields = 4

type buffer = {
  slot : int;
  mutable blocks : int array array;
  mutable len : int;
  mutable open_spans : int list;  (* indices of open spans, innermost first *)
}

let buffers : buffer list ref = ref []
let buffers_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      Mutex.protect buffers_lock (fun () ->
          let b =
            { slot = List.length !buffers; blocks = [||]; len = 0; open_spans = [] }
          in
          buffers := b :: !buffers;
          b))

(* Span ids are global: buffer slot in the high bits, index below. *)
let index_bits = 32
let id_of b i = (b.slot lsl index_bits) lor i
let no_parent = -1

(* meta word: name above bit 48, parent id + 1 below *)
let pack_meta name parent = (name lsl 48) lor (parent + 1)
let meta_name m = m lsr 48
let meta_parent m = (m land ((1 lsl 48) - 1)) - 1

let origin = Int64.to_int (Obs.Clock.now_ns ())
let now () = Int64.to_int (Obs.Clock.now_ns ()) - origin

let reserve b =
  let i = b.len in
  let blk = i / block_spans in
  if blk >= Array.length b.blocks then
    b.blocks <-
      Array.append b.blocks
        (Array.init (Stdlib.max 1 (Array.length b.blocks)) (fun _ -> [||]));
  if Array.length b.blocks.(blk) = 0 then
    b.blocks.(blk) <- Array.make (block_spans * fields) 0;
  b.len <- i + 1;
  i

let get b i f = b.blocks.(i / block_spans).(((i mod block_spans) * fields) + f)

let set b i f v =
  b.blocks.(i / block_spans).(((i mod block_spans) * fields) + f) <- v

(* The innermost open span of the calling domain, to parent spans that
   other domains open on its behalf. *)
let current () =
  if not !enabled then no_parent
  else
    let b = Domain.DLS.get key in
    match b.open_spans with [] -> no_parent | i :: _ -> id_of b i

let with_span ?parent name ~req f =
  if not !enabled then f ()
  else begin
    let b = Domain.DLS.get key in
    let i = reserve b in
    let parent =
      match parent with
      | Some p -> p
      | None -> (match b.open_spans with [] -> no_parent | j :: _ -> id_of b j)
    in
    set b i 2 (pack_meta name parent);
    set b i 3 req;
    b.open_spans <- i :: b.open_spans;
    set b i 0 (now ());
    let close () =
      set b i 1 (now ());
      b.open_spans <- List.tl b.open_spans
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let count () = List.fold_left (fun acc b -> acc + b.len) 0 !buffers

(* ---------------------------------------------------------- summary *)

type row = {
  mutable calls : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable samples : float list;  (* durations in seconds, when sampled *)
}

(* Union length of intervals, clipped to [lo, hi). *)
let covered ~lo ~hi intervals =
  let sorted = List.sort compare intervals in
  let total, cur =
    List.fold_left
      (fun (total, cur) (s, e) ->
        let s = Stdlib.max s lo and e = Stdlib.min e hi in
        if e <= s then (total, cur)
        else
          match cur with
          | None -> (total, Some (s, e))
          | Some (cs, ce) ->
            if s <= ce then (total, Some (cs, Stdlib.max ce e))
            else (total + (ce - cs), Some (s, e)))
      (0, None) sorted
  in
  match cur with None -> total | Some (cs, ce) -> total + (ce - cs)

(* Per-name rows; [sampled] names also keep every duration, for
   percentiles. *)
let summarise ~sampled =
  let bufs = Array.of_list (List.rev !buffers) in
  let child_ns = Array.map (fun b -> Array.make b.len 0) bufs in
  let foreign = Hashtbl.create 16 in
  Array.iter
    (fun b ->
      for i = 0 to b.len - 1 do
        let p = meta_parent (get b i 2) in
        if p <> no_parent then begin
          let ps = p lsr index_bits and pi = p land ((1 lsl index_bits) - 1) in
          let s = get b i 0 and e = get b i 1 in
          if ps = b.slot then child_ns.(ps).(pi) <- child_ns.(ps).(pi) + (e - s)
          else
            Hashtbl.replace foreign p
              ((s, e) :: Option.value (Hashtbl.find_opt foreign p) ~default:[])
        end
      done)
    bufs;
  Hashtbl.iter
    (fun p intervals ->
      let ps = p lsr index_bits and pi = p land ((1 lsl index_bits) - 1) in
      let b = bufs.(ps) in
      let lo = get b pi 0 and hi = get b pi 1 in
      child_ns.(ps).(pi) <- child_ns.(ps).(pi) + covered ~lo ~hi intervals)
    foreign;
  let rows =
    Array.init (Array.length !names) (fun _ ->
        { calls = 0; total_ns = 0; self_ns = 0; samples = [] })
  in
  Array.iteri
    (fun bi b ->
      for i = 0 to b.len - 1 do
        let n = meta_name (get b i 2) in
        let d = get b i 1 - get b i 0 in
        let r = rows.(n) in
        r.calls <- r.calls + 1;
        r.total_ns <- r.total_ns + d;
        r.self_ns <- r.self_ns + Stdlib.max 0 (d - child_ns.(bi).(i));
        if List.mem n sampled then r.samples <- (float_of_int d /. 1e9) :: r.samples
      done)
    bufs;
  rows

(* ---------------------------------------------------------- dump *)

(* Binary span file: a text header (format tag, the name table, one
   line per buffer with its span count), then per buffer its spans as
   little-endian int64 quadruples (start_ns, stop_ns, meta, request).
   meta = name lsl 48 lor (parent + 1); parent = slot lsl 32 lor index. *)
let dump path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let bufs = List.rev !buffers in
      Printf.fprintf oc "perfbench-spans/1\nnames %d\n" (Array.length !names);
      Array.iter (fun n -> Printf.fprintf oc "%s\n" n) !names;
      List.iter (fun b -> Printf.fprintf oc "buffer %d %d\n" b.slot b.len) bufs;
      let chunk = Bytes.create (8 * fields * 4096) in
      List.iter
        (fun b ->
          let pos = ref 0 in
          for i = 0 to b.len - 1 do
            for f = 0 to fields - 1 do
              Bytes.set_int64_le chunk !pos (Int64.of_int (get b i f));
              pos := !pos + 8
            done;
            if !pos = Bytes.length chunk then begin
              output oc chunk 0 !pos;
              pos := 0
            end
          done;
          output oc chunk 0 !pos)
        bufs)
