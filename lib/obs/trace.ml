type event = {
  name : string;
  cat : string;
  ts_ns : int64;
  dur_ns : int64;
  tid : int;
  sid : int;
  parent : int;
  args : (string * string) list;
}

type sink =
  | Memory of { mutable events : event list (* newest first *) }
  | File of { oc : out_channel; mutable first : bool }

type state = { sink : sink; t0 : int64; lock : Mutex.t }

(* Like the metrics flag, reads are racy by design: sinks are
   started/stopped from the main domain around the instrumented work,
   and a stale read skips or drops a span at the boundary. *)
let current : state option ref = ref None

(* --------------------------------------------- per-domain span stacks *)

(* Span identity and nesting are tracked only while some consumer needs
   them (a trace sink for parent ids, the event log for correlation
   ids, a profile for span paths): [tracking] is a refcount bumped by
   each consumer, and with it at zero a span costs one atomic load. *)

let tracking = Atomic.make 0
let track_stacks () = Atomic.incr tracking

let untrack_stacks () =
  let rec go () =
    let n = Atomic.get tracking in
    if n > 0 && not (Atomic.compare_and_set tracking n (n - 1)) then go ()
  in
  go ()

(* Span ids are process-global and never reused; 0 means "no span". *)
let next_sid = Atomic.make 1

(* A node of a domain's profile tree: one span path from the domain's
   root, with the self time and the completed calls charged to it. *)
type node = {
  n_name : string;
  mutable n_self_ns : int;
  mutable n_calls : int;
  mutable n_kids : node list;
}

let new_node name = { n_name = name; n_self_ns = 0; n_calls = 0; n_kids = [] }

(* the node of a frame entered while no profile was on; never charged *)
let no_node = new_node ""

type frame = {
  f_sid : int;
  f_node : node;
  mutable f_kids_ns : int;  (* summed durations of its timed children *)
}

(* Frames are domain-local: only the owning domain pushes, pops or reads
   them. [root] is this domain's tree in the profile numbered [gen]. *)
type dom = { mutable frames : frame list; mutable root : node; mutable gen : int }

let dom_key =
  Domain.DLS.new_key (fun () -> { frames = []; root = no_node; gen = 0 })

let current_span_id () =
  if Atomic.get tracking > 0 then
    match (Domain.DLS.get dom_key).frames with [] -> 0 | f :: _ -> f.f_sid
  else 0

(* ------------------------------------------------------------ profile *)

(* [p_trees] registers each domain's root once per profile; [p_gen]
   tells a domain that its root belongs to an earlier profile. *)
type profile = {
  p_gen : int;
  p_oc : out_channel;
  p_lock : Mutex.t;
  mutable p_trees : (int * node) list;
}

let profile : profile option ref = ref None
let generation = ref 0

let child parent name =
  let rec find = function
    | k :: rest -> if String.equal k.n_name name then k else find rest
    | [] ->
      let k = new_node name in
      parent.n_kids <- k :: parent.n_kids;
      k
  in
  find parent.n_kids

(* The node of span [name] entered under [saved]. A span whose parent
   was entered before the profile started hangs off the root, as
   {!Trace_stats} roots a span whose parent is not in the trace. *)
let enter p d saved name =
  if d.gen <> p.p_gen then begin
    d.root <- new_node "";
    d.gen <- p.p_gen;
    Mutex.lock p.p_lock;
    p.p_trees <- ((Domain.self () :> int), d.root) :: p.p_trees;
    Mutex.unlock p.p_lock
  end;
  match saved with
  | f :: _ when f.f_node != no_node -> child f.f_node name
  | _ -> child d.root name

let stop_profile () =
  match !profile with
  | None -> ()
  | Some p ->
    profile := None;
    untrack_stacks ();
    let lines = ref [] in
    let rec walk path node =
      List.iter
        (fun k ->
          let path = path ^ ";" ^ k.n_name in
          if k.n_calls > 0 then
            lines := (path, (k.n_self_ns + 500) / 1000) :: !lines;
          walk path k)
        node.n_kids
    in
    List.iter
      (fun (dom, root) -> walk ("domain" ^ string_of_int dom) root)
      p.p_trees;
    try
      List.iter
        (fun (path, us) -> Printf.fprintf p.p_oc "%s %d\n" path us)
        (List.sort compare !lines);
      close_out p.p_oc
    with Sys_error _ -> ()

let start_profile path =
  let oc = open_out path in
  stop_profile ();
  track_stacks ();
  incr generation;
  profile :=
    Some { p_gen = !generation; p_oc = oc; p_lock = Mutex.create (); p_trees = [] }

(* ------------------------------------------------------------- events *)

let json_of_event ev =
  let us ns = Int64.to_float ns /. 1e3 in
  let fields =
    [
      ("name", Json.String ev.name);
      ("cat", Json.String (if ev.cat = "" then "pp" else ev.cat));
      ("ph", Json.String (if Int64.equal ev.dur_ns (-1L) then "i" else "X"));
      ("ts", Json.Float (us ev.ts_ns));
      ("pid", Json.Int 1);
      ("tid", Json.Int ev.tid);
    ]
    @ (if Int64.equal ev.dur_ns (-1L) then [ ("s", Json.String "t") ]
       else [ ("dur", Json.Float (us ev.dur_ns)) ])
    (* top-level extension fields; Chrome/Perfetto ignore unknown keys *)
    @ (if ev.sid <> 0 then [ ("sid", Json.Int ev.sid) ] else [])
    @ (if ev.parent <> 0 then [ ("parent", Json.Int ev.parent) ] else [])
    @
    match ev.args with
    | [] -> []
    | args ->
      [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) args)) ]
  in
  Json.to_string (Json.Obj fields)

let emit st ev =
  Mutex.lock st.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock st.lock)
    (fun () ->
      match st.sink with
      | Memory m -> m.events <- ev :: m.events
      | File f ->
        (try
           if f.first then f.first <- false else output_string f.oc ",\n";
           output_string f.oc (json_of_event ev)
         with Sys_error _ -> ()))

let finalise st =
  match st.sink with
  | Memory m -> List.rev m.events
  | File f ->
    (try
       (* a final instant event closes the array with valid JSON *)
       if f.first then f.first <- false else output_string f.oc ",\n";
       output_string f.oc
         (json_of_event
            { name = "trace.stop"; cat = "obs"; ts_ns = Int64.sub (Clock.now_ns ()) st.t0;
              dur_ns = -1L; tid = 0; sid = 0; parent = 0; args = [] });
       output_string f.oc "]\n";
       close_out f.oc
     with Sys_error _ -> ());
    []

let stop () =
  match !current with
  | None -> []
  | Some st ->
    current := None;
    untrack_stacks ();
    finalise st

let detach () =
  if Option.is_some !current then (current := None; untrack_stacks ());
  if Option.is_some !profile then (profile := None; untrack_stacks ())

let start sink =
  ignore (stop ());
  track_stacks ();
  current := Some { sink; t0 = Clock.now_ns (); lock = Mutex.create () }

let start_memory () = start (Memory { events = [] })

let start_file path =
  let oc = open_out path in
  output_string oc "[\n";
  start (File { oc; first = true })

let tid () = (Domain.self () :> int)

(* Pop [fr] and, when it was timed, charge the span: its duration minus
   its children's to its profile node, its duration to its parent
   frame, and its event to the sink — all from one pair of clock reads,
   so a trace and a profile of the same run agree exactly. *)
let leave d saved fr st timed t0 name cat args =
  d.frames <- saved;
  if timed then begin
    let dur_ns = Int64.sub (Clock.now_ns ()) t0 in
    let dur = Int64.to_int dur_ns in
    let node = fr.f_node in
    if node != no_node then begin
      node.n_self_ns <- node.n_self_ns + dur - fr.f_kids_ns;
      node.n_calls <- node.n_calls + 1
    end;
    (match saved with p :: _ -> p.f_kids_ns <- p.f_kids_ns + dur | [] -> ());
    match st with
    | None -> ()
    | Some st ->
      emit st
        {
          name;
          cat;
          ts_ns = Int64.sub t0 st.t0;
          dur_ns;
          tid = tid ();
          sid = fr.f_sid;
          parent = (match saved with [] -> 0 | p :: _ -> p.f_sid);
          args;
        }
  end

let with_span ?(cat = "") ?(args = []) name f =
  if Atomic.get tracking = 0 then f ()
  else begin
    (* push the frame before running [f], so the event log sees the
       span from inside it *)
    let d = Domain.DLS.get dom_key in
    let saved = d.frames in
    let st = !current in
    let fr =
      {
        f_sid = Atomic.fetch_and_add next_sid 1;
        f_node =
          (match !profile with None -> no_node | Some p -> enter p d saved name);
        f_kids_ns = 0;
      }
    in
    d.frames <- fr :: saved;
    let timed = match st with Some _ -> true | None -> fr.f_node != no_node in
    let t0 = if timed then Clock.now_ns () else 0L in
    match f () with
    | r ->
      leave d saved fr st timed t0 name cat args;
      r
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      leave d saved fr st timed t0 name cat args;
      Printexc.raise_with_backtrace e bt
  end

let instant ?(cat = "") ?(args = []) name =
  match !current with
  | None -> ()
  | Some st ->
    emit st
      {
        name;
        cat;
        ts_ns = Int64.sub (Clock.now_ns ()) st.t0;
        dur_ns = -1L;
        tid = tid ();
        sid = 0;
        parent = current_span_id ();
        args;
      }
