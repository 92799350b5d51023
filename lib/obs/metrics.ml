(* The enabled flag is a plain ref: mutations only ever read it, and a
   racy (stale) read merely records or skips one event around the
   moment the flag flips. Immediate values make the race benign under
   the OCaml memory model. *)
let enabled_flag = ref false
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

type counter = { cname : string; ccell : int Atomic.t }
type gauge = { gname : string; gcell : float Atomic.t }

type histogram = {
  hname : string;
  bounds : float array;          (* strictly increasing upper bounds *)
  buckets : int Atomic.t array;  (* length (bounds) + 1; last = +inf *)
  hsum : float Atomic.t;
  hcount : int Atomic.t;
}

type metric =
  | Counter_m of counter
  | Gauge_m of gauge
  | Histogram_m of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let with_lock f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let kind_error name =
  invalid_arg
    (Printf.sprintf "Obs.Metrics: %S already registered with a different kind" name)

let counter name =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Counter_m c) -> c
      | Some _ -> kind_error name
      | None ->
        let c = { cname = name; ccell = Atomic.make 0 } in
        Hashtbl.add registry name (Counter_m c);
        c)

let gauge name =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Gauge_m g) -> g
      | Some _ -> kind_error name
      | None ->
        let g = { gname = name; gcell = Atomic.make 0.0 } in
        Hashtbl.add registry name (Gauge_m g);
        g)

let default_bounds =
  [| 1.0; 10.0; 100.0; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9 |]

let histogram ?(bounds = default_bounds) name =
  let increasing =
    Array.for_all Fun.id
      (Array.init
         (Stdlib.max 0 (Array.length bounds - 1))
         (fun i -> bounds.(i) < bounds.(i + 1)))
  in
  if not increasing then
    invalid_arg "Obs.Metrics.histogram: bounds must be strictly increasing";
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Histogram_m h) -> if h.bounds = bounds then h else kind_error name
      | Some _ -> kind_error name
      | None ->
        let h =
          {
            hname = name;
            bounds = Array.copy bounds;
            buckets = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
            hsum = Atomic.make 0.0;
            hcount = Atomic.make 0;
          }
        in
        Hashtbl.add registry name (Histogram_m h);
        h)

let incr c = if !enabled_flag then ignore (Atomic.fetch_and_add c.ccell 1)
let add c n = if !enabled_flag then ignore (Atomic.fetch_and_add c.ccell n)
let set g x = if !enabled_flag then Atomic.set g.gcell x
let value c = Atomic.get c.ccell
let gauge_value g = Atomic.get g.gcell

(* fetch_and_add exists only for int atomics; floats take a CAS loop *)
let rec atomic_add_float cell x =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (old +. x)) then atomic_add_float cell x

let observe h x =
  if !enabled_flag then begin
    let n = Array.length h.bounds in
    let rec bucket i = if i >= n || x <= h.bounds.(i) then i else bucket (i + 1) in
    ignore (Atomic.fetch_and_add h.buckets.(bucket 0) 1);
    ignore (Atomic.fetch_and_add h.hcount 1);
    atomic_add_float h.hsum x
  end

(* ------------------------------------------------- process telemetry *)

(* GC and memory gauges, published lazily at snapshot time so the hot
   paths never touch them. They describe the environment rather than
   the computation, so the regression gate skips them by default (see
   Regress.default_ignores). *)
let g_minor = gauge "gc.minor_collections"
let g_major = gauge "gc.major_collections"
let g_heap = gauge "gc.heap_words"
let g_rss = gauge "process.max_rss_kb"

let max_rss_kb () =
  (* VmHWM ("high water mark") from /proc/self/status; 0.0 when the
     file is absent (non-Linux) or the line is missing *)
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | contents ->
    let lines = String.split_on_char '\n' contents in
    List.fold_left
      (fun acc line ->
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = "VmHWM" ->
          let rest = String.sub line (i + 1) (String.length line - i - 1) in
          let digits =
            String.to_seq rest
            |> Seq.filter (fun c -> c >= '0' && c <= '9')
            |> String.of_seq
          in
          (match float_of_string_opt digits with Some f -> f | None -> acc)
        | _ -> acc)
      0.0 lines
  | exception Sys_error _ -> 0.0

let publish_process_stats () =
  if !enabled_flag then begin
    let st = Gc.quick_stat () in
    set g_minor (float_of_int st.Gc.minor_collections);
    set g_major (float_of_int st.Gc.major_collections);
    set g_heap (float_of_int st.Gc.heap_words);
    set g_rss (max_rss_kb ())
  end

(* ---------------------------------------------------------- snapshots *)

type v =
  | Counter of int
  | Gauge of float
  | Histogram of { bounds : float array; counts : int array; sum : float; count : int }

type snapshot = (string * v) list

let value_of = function
  | Counter_m c -> Counter (Atomic.get c.ccell)
  | Gauge_m g -> Gauge (Atomic.get g.gcell)
  | Histogram_m h ->
    Histogram
      {
        bounds = Array.copy h.bounds;
        counts = Array.map Atomic.get h.buckets;
        sum = Atomic.get h.hsum;
        count = Atomic.get h.hcount;
      }

let snapshot ?(process = true) () =
  if process then publish_process_stats ();
  with_lock (fun () ->
      Hashtbl.fold (fun name m acc -> (name, value_of m) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---------------------------------------------------------- quantiles *)

(* Linear interpolation within the bucket holding the target rank: the
   estimate is exact when observations are uniform inside each bucket
   and deterministic either way, so rendering quantiles into JSON keeps
   [of_json]/[to_json] byte-stable. *)
let quantile_of ~bounds ~counts ~count q =
  if count <= 0 then None
  else if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Obs.Metrics.quantile: q must be in [0,1]"
  else begin
    let target = q *. float_of_int count in
    let nb = Array.length bounds in
    let rec go i cum =
      if i >= Array.length counts then None
      else
        let c = counts.(i) in
        let cum' = cum + c in
        if c > 0 && float_of_int cum' >= target then
          let lo =
            if i = 0 then Float.min 0.0 (if nb > 0 then bounds.(0) else 0.0)
            else bounds.(i - 1)
          in
          if i >= nb then Some lo (* the +inf bucket: report its lower edge *)
          else
            let hi = bounds.(i) in
            let frac =
              Float.max 0.0
                (Float.min 1.0 ((target -. float_of_int cum) /. float_of_int c))
            in
            Some (lo +. (frac *. (hi -. lo)))
        else go (i + 1) cum'
    in
    go 0 0
  end

let quantile v q =
  match v with
  | Histogram { bounds; counts; count; _ } -> quantile_of ~bounds ~counts ~count q
  | Counter _ | Gauge _ -> None

let diff ~before ~after =
  List.filter_map
    (fun (name, v_after) ->
      match (List.assoc_opt name before, v_after) with
      | None, v -> Some (name, v)
      | Some (Counter b), Counter a ->
        if a = b then None else Some (name, Counter (a - b))
      | Some (Gauge b), Gauge a -> if a = b then None else Some (name, Gauge a)
      | Some (Histogram b), Histogram a when b.bounds = a.bounds ->
        if a.count = b.count && a.sum = b.sum then None
        else
          Some
            ( name,
              Histogram
                {
                  bounds = a.bounds;
                  counts = Array.mapi (fun i c -> c - b.counts.(i)) a.counts;
                  sum = a.sum -. b.sum;
                  count = a.count - b.count;
                } )
      | Some _, v -> Some (name, v))
    after

(* The inverse of [diff] for telemetry accumulation: a coordinator
   folds each worker's heartbeat delta into its running view of that
   worker. Counters and histogram cells add; gauges (and any
   kind/bounds mismatch, e.g. a worker that re-registered a histogram
   with new bounds) take the delta's value — last writer wins, exactly
   as a live registry would behave. *)
let merge base delta =
  let tbl = Hashtbl.create (List.length base + List.length delta) in
  List.iter (fun (name, v) -> Hashtbl.replace tbl name v) base;
  List.iter
    (fun (name, dv) ->
      let v =
        match (Hashtbl.find_opt tbl name, dv) with
        | Some (Counter b), Counter d -> Counter (b + d)
        | Some (Histogram b), Histogram d
          when b.bounds = d.bounds
               && Array.length b.counts = Array.length d.counts ->
          Histogram
            {
              bounds = b.bounds;
              counts = Array.mapi (fun i c -> c + d.counts.(i)) b.counts;
              sum = b.sum +. d.sum;
              count = b.count + d.count;
            }
        | _, v -> v
      in
      Hashtbl.replace tbl name v)
    delta;
  Hashtbl.fold (fun n v acc -> (n, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset () =
  with_lock (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter_m c -> Atomic.set c.ccell 0
          | Gauge_m g -> Atomic.set g.gcell 0.0
          | Histogram_m h ->
            Array.iter (fun b -> Atomic.set b 0) h.buckets;
            Atomic.set h.hsum 0.0;
            Atomic.set h.hcount 0)
        registry)

(* ---------------------------------------------------------- rendering *)

let to_text s =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "== metrics snapshot ==\n";
  List.iter
    (fun (name, v) ->
      match v with
      | Counter n -> Printf.bprintf buf "%-44s counter   %d\n" name n
      | Gauge f -> Printf.bprintf buf "%-44s gauge     %g\n" name f
      | Histogram h ->
        Printf.bprintf buf "%-44s histogram count=%d sum=%g" name h.count h.sum;
        List.iter
          (fun (label, q) ->
            match quantile_of ~bounds:h.bounds ~counts:h.counts ~count:h.count q with
            | Some est -> Printf.bprintf buf " %s=%g" label est
            | None -> ())
          [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ];
        Array.iteri
          (fun i c ->
            if c > 0 then
              if i < Array.length h.bounds then
                Printf.bprintf buf " le%g=%d" h.bounds.(i) c
              else Printf.bprintf buf " inf=%d" c)
          h.counts;
        Buffer.add_char buf '\n')
    s;
  Buffer.contents buf

let json_of_v = function
  | Counter n -> Json.Obj [ ("type", Json.String "counter"); ("value", Json.Int n) ]
  | Gauge f -> Json.Obj [ ("type", Json.String "gauge"); ("value", Json.Float f) ]
  | Histogram h ->
    (* quantiles are derived from bounds/counts, so [v_of_json] ignores
       them and re-rendering recomputes identical values — the
       JSON round-trip stays byte-stable *)
    let quantiles =
      if h.count <= 0 then []
      else
        [
          ( "quantiles",
            Json.Obj
              (List.filter_map
                 (fun (label, q) ->
                   Option.map
                     (fun est -> (label, Json.Float est))
                     (quantile_of ~bounds:h.bounds ~counts:h.counts
                        ~count:h.count q))
                 [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ]) );
        ]
    in
    Json.Obj
      ([
         ("type", Json.String "histogram");
         ("bounds", Json.List (Array.to_list h.bounds |> List.map (fun b -> Json.Float b)));
         ("counts", Json.List (Array.to_list h.counts |> List.map (fun c -> Json.Int c)));
         ("sum", Json.Float h.sum);
         ("count", Json.Int h.count);
       ]
      @ quantiles)

let to_json_value s = Json.Obj (List.map (fun (n, v) -> (n, json_of_v v)) s)
let to_json s = Json.to_string (to_json_value s)

let v_of_json j =
  let open Json.Decode in
  let* kind = field "type" string j in
  match kind with
  | "counter" -> Result.map (fun n -> Counter n) (field "value" int j)
  | "gauge" -> Result.map (fun f -> Gauge f) (field "value" number j)
  | "histogram" ->
    let* bounds = field "bounds" (list number) j in
    let* counts = field "counts" (list int) j in
    let* sum = field "sum" number j in
    let* count = field "count" int j in
    (* every reader indexes counts by bucket: one per bound plus +inf *)
    let nb = List.length bounds and nc = List.length counts in
    if nc <> nb + 1 then
      Error (Printf.sprintf "histogram has %d counts for %d bounds" nc nb)
    else
      Ok
        (Histogram
           {
             bounds = Array.of_list bounds;
             counts = Array.of_list counts;
             sum;
             count;
           })
  | k -> Error (Printf.sprintf "unknown metric type %S" k)

let of_json_value = function
  | Json.Obj fields ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (name, jv) :: rest ->
        (match v_of_json jv with
         | Ok v -> go ((name, v) :: acc) rest
         | Error e -> Error (Printf.sprintf "%s: %s" name e))
    in
    go [] fields
  | _ -> Error "snapshot must be a JSON object"

let of_json s = Result.bind (Json.parse s) of_json_value
