module H = Hashtbl.Make (struct
  type t = Mset.t

  let equal = Mset.equal
  let hash = Mset.hash
end)

type t = {
  protocol : Population.t;
  configs : Mset.t array;
  succ : int array array;
  root : int;
  lookup : Mset.t -> int option;
}

exception Too_many_configs of int

(* A minimal growable array (OCaml 5.1 predates Stdlib.Dynarray). *)
module Grow = struct
  type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

  let create dummy = { data = Array.make 64 dummy; len = 0; dummy }

  let push g x =
    if g.len = Array.length g.data then begin
      let data = Array.make (2 * g.len) g.dummy in
      Array.blit g.data 0 data 0 g.len;
      g.data <- data
    end;
    g.data.(g.len) <- x;
    g.len <- g.len + 1

  let get g i = g.data.(i)
  let set g i x = g.data.(i) <- x
  let to_array g = Array.sub g.data 0 g.len
end

let m_explorations = Obs.Metrics.counter "configgraph.explorations"
let m_configs = Obs.Metrics.counter "configgraph.configs"
let m_edges = Obs.Metrics.counter "configgraph.edges"
let m_packed = Obs.Metrics.counter "configgraph.packed_explorations"
let m_lazy = Obs.Metrics.counter "configgraph.lazy_explorations"

(* -- exploration state, one per representation ------------------------- *)

(* The nodes interned so far, in discovery order, and the two operations
   every traversal needs: [intern c] is c's node index, numbering c on first
   sight (and raising [Too_many_configs] past the budget); [expand v]
   interns v's successors in transition order and returns their indices
   sorted, without duplicates and without v itself. Interning in
   transition order is what fixes the node numbering, so the multiset
   and the packed state give the same graph index for index under
   either traversal. [lookup] is the read-only probe the finished graph
   keeps. [mask] sets the progress period: a progress line is offered
   before expanding a node whose index has those bits clear. [packed]
   counts the exploration into [configgraph.packed_explorations]. *)
type 'c state = {
  nodes : 'c Grow.t;
  intern : 'c -> int;
  expand : int -> int array;
  lookup : 'c -> int option;
  mask : int;
  packed : bool;
}

let admit ~max_configs nodes =
  if nodes.Grow.len >= max_configs then raise (Too_many_configs max_configs)

let multiset_state ~max_configs p =
  let index = H.create 1024 in
  let nodes = Grow.create (Mset.zero 0) in
  let intern c =
    match H.find_opt index c with
    | Some i -> i
    | None ->
      admit ~max_configs nodes;
      let i = nodes.Grow.len in
      H.add index c i;
      Grow.push nodes c;
      i
  in
  let expand v =
    List.map intern (Population.distinct_successors p (Grow.get nodes v))
    |> List.sort_uniq Stdlib.compare
    |> List.filter (fun j -> j <> v)
    |> Array.of_list
  in
  { nodes; intern; expand; lookup = H.find_opt index; mask = 255; packed = false }

(* The packed state: configurations as immediate ints.

   In the busy-beaver regime (<= 7 states, population <= 255) a
   configuration fits one word at 8 bits per state (see {!Mset.pack}),
   so interning is int-keyed and a successor costs no allocation: firing
   transition t on packed c is [c + pdelta.(t)] after an enabledness
   check on two bit fields. Successors are generated in transition
   order and deduplicated keeping first occurrences, exactly like
   [Population.distinct_successors]. *)

(* packed configurations are base-256 numbers whose low digits barely
   vary within one graph; mix before bucketing *)
let hash x =
  let h = x * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

let packed_state ~max_configs p =
  let nt = Population.num_transitions p in
  (* per-transition firing data, unpacked from the protocol once *)
  let pre_a = Array.make nt 0 in
  let pre_b = Array.make nt 0 in
  let pdelta = Array.make nt 0 in
  Array.iteri
    (fun t { Population.pre = a, b; _ } ->
      pre_a.(t) <- 8 * a;
      pre_b.(t) <- 8 * b;
      pdelta.(t) <- Mset.pack_delta (Population.displacement p t))
    p.Population.transitions;
  (* open-addressing intern table (linear probing, load <= 1/2): the
     per-successor membership probe is the scan's hottest operation, so
     it must not allocate. Packed configs are non-negative; -1 marks an
     empty slot. *)
  let cap = ref 256 in
  let keys = ref (Array.make !cap (-1)) in
  let ids = ref (Array.make !cap 0) in
  let slot_of keys cap c =
    let mask = cap - 1 in
    let s = ref (hash c land mask) in
    while
      let k = keys.(!s) in
      k <> -1 && k <> c
    do
      s := (!s + 1) land mask
    done;
    !s
  in
  let grow () =
    let cap' = 2 * !cap in
    let keys' = Array.make cap' (-1) in
    let ids' = Array.make cap' 0 in
    for s = 0 to !cap - 1 do
      let k = !keys.(s) in
      if k <> -1 then begin
        let s' = slot_of keys' cap' k in
        keys'.(s') <- k;
        ids'.(s') <- !ids.(s)
      end
    done;
    cap := cap';
    keys := keys';
    ids := ids'
  in
  let nodes = Grow.create 0 in
  let intern c =
    let s = slot_of !keys !cap c in
    if !keys.(s) <> -1 then !ids.(s)
    else begin
      admit ~max_configs nodes;
      let i = nodes.Grow.len in
      !keys.(s) <- c;
      !ids.(s) <- i;
      Grow.push nodes c;
      if 2 * i >= !cap then grow ();
      i
    end
  in
  let lookup c =
    let s = slot_of !keys !cap c in
    if !keys.(s) = -1 then None else Some !ids.(s)
  in
  (* one buffer, reused across nodes: distinct successor values in
     first-occurrence order, then their node indices *)
  let buf = Array.make (Stdlib.max 1 nt) 0 in
  let expand v =
    let c = Grow.get nodes v in
    let n = ref 0 in
    for t = 0 to nt - 1 do
      let sa = pre_a.(t) and sb = pre_b.(t) in
      let enabled =
        if sa = sb then (c lsr sa) land 0xff >= 2
        else (c lsr sa) land 0xff >= 1 && (c lsr sb) land 0xff >= 1
      in
      if enabled then begin
        let c' = c + pdelta.(t) in
        let dup = ref false in
        for k = 0 to !n - 1 do
          if buf.(k) = c' then dup := true
        done;
        if not !dup then begin
          buf.(!n) <- c';
          incr n
        end
      end
    done;
    let n = !n in
    (* intern in first-occurrence order (fixes node numbering); distinct
       values get distinct indices, so sorting (insertion sort: n <= nt,
       tiny) and dropping the self loop is all that is left *)
    for k = 0 to n - 1 do
      buf.(k) <- intern buf.(k)
    done;
    let m = ref 0 in
    for k = 0 to n - 1 do
      let x = buf.(k) in
      if x <> v then begin
        let j = ref (!m - 1) in
        while !j >= 0 && buf.(!j) > x do
          buf.(!j + 1) <- buf.(!j);
          decr j
        done;
        buf.(!j + 1) <- x;
        incr m
      end
    done;
    Array.sub buf 0 !m
  in
  { nodes; intern; expand; lookup; mask = 1023; packed = true }

(* -- the two traversals --------------------------------------------------- *)

exception Stopped

(* Breadth-first: node i is expanded once every node before it has been,
   so the numbering is BFS discovery order. *)
let bfs st ~step =
  let succs = Grow.create [||] in
  while succs.Grow.len < st.nodes.Grow.len do
    Grow.push succs (step succs.Grow.len)
  done;
  Grow.to_array succs

(* Iterative Tarjan where a node's successors are computed the first
   time the DFS enters it ([expand], which interns new nodes as it
   goes), so strongly connected components complete — and bottom ones
   are reported — while the graph is still being discovered. When an
   SCC pops, every successor of its members already has a component
   (its own, or an earlier-popped one), so bottomness is one membership
   scan; [on_bottom] returning [`Stop] abandons the rest of the
   exploration. Node 0 must exist and reach every node ever interned.
   Returns the number of SCCs popped. *)
let lazy_sccs ~expand ~on_bottom =
  (* All bookkeeping lives in flat parallel arrays and int stacks: this
     runs once per configuration of a multi-million-node scan, so the
     only per-node heap allocation is the successor array [expand]
     returns (and a member list per *bottom* component). *)
  let idx = Grow.create (-1) in
  let low = Grow.create 0 in
  let onstk = Grow.create false in
  let comp = Grow.create (-1) in
  let succs = Grow.create [||] in
  let ensure n =
    while idx.Grow.len <= n do
      Grow.push idx (-1);
      Grow.push low 0;
      Grow.push onstk false;
      Grow.push comp (-1);
      Grow.push succs [||]
    done
  in
  let stack = Grow.create 0 in
  (* DFS frames as parallel (node, next-child) int stacks *)
  let fnode = Grow.create 0 in
  let fchild = Grow.create 0 in
  let entries = ref 0 in
  let ncomps = ref 0 in
  let enter v =
    ensure v;
    Grow.set idx v !entries;
    Grow.set low v !entries;
    incr entries;
    Grow.push stack v;
    Grow.set onstk v true;
    Grow.set succs v (expand v);
    Grow.push fnode v;
    Grow.push fchild 0
  in
  let pop_component v =
    let id = !ncomps in
    incr ncomps;
    (* the component is the stack segment from [v]'s slot to the top *)
    let top = stack.Grow.len in
    let base = ref (top - 1) in
    while Grow.get stack !base <> v do
      decr base
    done;
    let base = !base in
    for k = base to top - 1 do
      let w = Grow.get stack k in
      Grow.set onstk w false;
      Grow.set comp w id
    done;
    stack.Grow.len <- base;
    let bottom = ref true in
    let k = ref base in
    while !bottom && !k < top do
      let ss = Grow.get succs (Grow.get stack !k) in
      let j = ref 0 in
      while !bottom && !j < Array.length ss do
        if Grow.get comp ss.(!j) <> id then bottom := false;
        incr j
      done;
      incr k
    done;
    if !bottom then begin
      let members = ref [] in
      for k = top - 1 downto base do
        members := Grow.get stack k :: !members
      done;
      match on_bottom !members with `Stop -> raise Stopped | `Continue -> ()
    end
  in
  let rec loop () =
    if fnode.Grow.len > 0 then begin
      let fi = fnode.Grow.len - 1 in
      let v = Grow.get fnode fi in
      let ss = Grow.get succs v in
      let ci = Grow.get fchild fi in
      if ci < Array.length ss then begin
        Grow.set fchild fi (ci + 1);
        let w = ss.(ci) in
        ensure w;
        if Grow.get idx w = -1 then enter w
        else if Grow.get onstk w then
          Grow.set low v (Stdlib.min (Grow.get low v) (Grow.get idx w))
      end
      else begin
        fnode.Grow.len <- fi;
        fchild.Grow.len <- fi;
        if fi > 0 then begin
          let parent = Grow.get fnode (fi - 1) in
          Grow.set low parent (Stdlib.min (Grow.get low parent) (Grow.get low v))
        end;
        if Grow.get low v = Grow.get idx v then pop_component v
      end;
      loop ()
    end
  in
  (try
     enter 0;
     loop ()
   with Stopped -> ());
  !ncomps

(* -- one exploration ------------------------------------------------------ *)

(* Builds the state, interns [c0] as node 0 and runs [drive] on it inside
   the span [name]. [step] is the traversals' [expand]: it adds the
   progress line every [mask + 1] nodes, and counts edges. The metrics
   are published even when the node budget aborts the exploration, so
   an over-budget run still reports how far it got. *)
let run ~name ~lazy_ ~make ?(max_configs = 2_000_000) p c0 drive =
  let st = make ~max_configs p in
  let edges = ref 0 in
  let progress = Obs.Progress.create name in
  let step v =
    if v land st.mask = 0 then
      Obs.Progress.tick progress (fun () ->
          Printf.sprintf "%d configs discovered, %d expanded, %d edges"
            st.nodes.Grow.len v !edges);
    let ss = st.expand v in
    edges := !edges + Array.length ss;
    ss
  in
  Fun.protect
    ~finally:(fun () ->
      if Obs.Metrics.enabled () then begin
        Obs.Metrics.incr m_explorations;
        if st.packed then Obs.Metrics.incr m_packed;
        if lazy_ then Obs.Metrics.incr m_lazy;
        Obs.Metrics.add m_configs st.nodes.Grow.len;
        Obs.Metrics.add m_edges !edges
      end)
    (fun () ->
      Obs.Trace.with_span name ~cat:"verify"
        ~args:[ ("protocol", p.Population.name) ]
        (fun () ->
          ignore (st.intern c0);
          let r = drive st step in
          Obs.Progress.finish progress (fun () ->
              Printf.sprintf "%d configs, %d edges" st.nodes.Grow.len !edges);
          r))

(* The whole graph: the final state and every node's successors. *)
let eager ~make ?max_configs p c0 =
  run ~name:"configgraph.explore" ~lazy_:false ~make ?max_configs p c0
    (fun st step -> (st, bfs st ~step))

let sccs ~make ?max_configs p c0 ~on_bottom =
  run ~name:"configgraph.explore_sccs" ~lazy_:true ~make ?max_configs p c0
    (fun st step ->
      lazy_sccs ~expand:step ~on_bottom:(fun members ->
          on_bottom (List.map (Grow.get st.nodes) members)))

(* -- multiset graphs ------------------------------------------------------ *)

let explore ?max_configs p c0 =
  let st, succ = eager ~make:multiset_state ?max_configs p c0 in
  (* the interning table survives as the O(1) lookup index *)
  let configs = Grow.to_array st.nodes in
  { protocol = p; configs; succ; root = 0; lookup = st.lookup }

let explore_sccs ?max_configs p c0 ~on_bottom =
  sccs ~make:multiset_state ?max_configs p c0 ~on_bottom

let num_configs g = Array.length g.configs
let find (g : t) c = g.lookup c

let reachable_from g src =
  let n = num_configs g in
  let seen = Array.make n false in
  let stack = ref [ src ] in
  seen.(src) <- true;
  let rec loop () =
    match !stack with
    | [] -> ()
    | v :: rest ->
      stack := rest;
      Array.iter
        (fun w ->
          if not seen.(w) then begin
            seen.(w) <- true;
            stack := w :: !stack
          end)
        g.succ.(v);
      loop ()
  in
  loop ();
  seen

let can_reach g ~src pred =
  let seen = reachable_from g src in
  let n = num_configs g in
  let rec go i =
    if i >= n then false
    else if seen.(i) && pred g.configs.(i) then true
    else go (i + 1)
  in
  go 0

let can_reach_config g ~src c =
  match find g c with
  | None -> false
  | Some i -> i = src || (reachable_from g src).(i)

(* -- packed graphs -------------------------------------------------------- *)

module Packed = struct
  type graph = {
    protocol : Population.t;
    configs : int array;
    succ : int array array;
    root : int;
    lookup : int -> int option;
  }

  let applicable p c0 =
    Population.num_states p <= Mset.max_packed_dim
    && Mset.size c0 <= Mset.max_packed_count

  let require fn p c0 =
    if not (applicable p c0) then
      invalid_arg
        ("Configgraph.Packed." ^ fn ^ ": protocol/configuration not packable")

  let num_configs g = Array.length g.configs
  let find (g : graph) c = g.lookup c
  let config g i = Mset.unpack ~dim:(Population.num_states g.protocol) g.configs.(i)

  let explore ?max_configs p c0 =
    require "explore" p c0;
    let st, succ = eager ~make:packed_state ?max_configs p (Mset.pack c0) in
    let configs = Grow.to_array st.nodes in
    { protocol = p; configs; succ; root = 0; lookup = st.lookup }

  let explore_sccs ?max_configs p c0 ~on_bottom =
    require "explore_sccs" p c0;
    sccs ~make:packed_state ?max_configs p (Mset.pack c0) ~on_bottom
end
