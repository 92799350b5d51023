type clock =
  | Steps of { max_steps : int; quiet_steps : int }
  | Continuous of { max_steps : int; quiet_time : float; scale : float }

type outcome = {
  time : float;
  fired : int;
  last_change : float;
  output : bool option;
  final : Mset.t;
  converged : bool;
  inert : bool;
  updates : int;
}

(* The productive transitions in protocol order, one slot each, as flat
   arrays so a firing touches no boxed value. *)
type table = {
  pre_a : int array;
  pre_b : int array;
  post_a : int array;
  post_b : int array;
  mult : int array;        (* weight per enabling pair *)
  ones_delta : int array;  (* change of the number of output-1 agents *)
  deps : int array array;  (* slots whose weight a firing can change *)
  lcm : int;               (* L on the step clock, 1 otherwise *)
}

type state = {
  table : table;
  counts : int array;
  weights : int array;
  mutable total : int;
  mutable ones : int;
  mutable updates : int;
}

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let table clock p =
  let open Population in
  let productive =
    List.init (num_transitions p) Fun.id
    |> List.filter (fun i -> Intvec.support (displacement p i) <> [])
    |> Array.of_list
  in
  let field f = Array.map (fun i -> f p.transitions.(i)) productive in
  (* k = transitions on a pre-pair, identities included: the uniform
     scheduler picks one of them uniformly *)
  let on_pair = Hashtbl.create 16 in
  Array.iter
    (fun tr ->
      Hashtbl.replace on_pair tr.pre
        (1 + Option.value ~default:0 (Hashtbl.find_opt on_pair tr.pre)))
    p.transitions;
  let k tr = match clock with Steps _ -> Hashtbl.find on_pair tr.pre | Continuous _ -> 1 in
  let lcm = Array.fold_left (fun l tr -> l / gcd l (k tr) * k tr) 1 (field Fun.id) in
  let readers = Array.make (num_states p) [] in
  Array.iteri
    (fun slot i ->
      let a, b = p.transitions.(i).pre in
      readers.(a) <- slot :: readers.(a);
      if b <> a then readers.(b) <- slot :: readers.(b))
    productive;
  let moved i = Intvec.support (displacement p i) in
  {
    pre_a = field (fun tr -> fst tr.pre);
    pre_b = field (fun tr -> snd tr.pre);
    post_a = field (fun tr -> fst tr.post);
    post_b = field (fun tr -> snd tr.post);
    mult = field (fun tr -> lcm / k tr);
    ones_delta =
      Array.map
        (fun i ->
          List.fold_left
            (fun d s -> if p.output.(s) then d + Intvec.get (displacement p i) s else d)
            0 (moved i))
        productive;
    deps =
      Array.map
        (fun i ->
          Array.of_list (List.sort_uniq compare (List.concat_map (fun s -> readers.(s)) (moved i))))
        productive;
    lcm;
  }

(* Unordered pairs of distinct agents in states [a] and [b]. *)
let[@inline] pairs counts a b =
  if a = b then counts.(a) * (counts.(a) - 1) / 2 else counts.(a) * counts.(b)

let state clock p c0 =
  let table = table clock p in
  let counts = Array.init (Population.num_states p) (Mset.get c0) in
  let weights =
    Array.mapi (fun i m -> pairs counts table.pre_a.(i) table.pre_b.(i) * m) table.mult
  in
  let ones = ref 0 in
  Array.iteri (fun s c -> if p.Population.output.(s) then ones := !ones + c) counts;
  {
    table;
    counts;
    weights;
    total = Array.fold_left ( + ) 0 weights;
    ones = !ones;
    updates = 0;
  }

let total s = s.total
let config s = Mset.of_array s.counts

let fire s r =
  if r < 0 || r >= s.total then invalid_arg "Event_kernel.fire: draw out of range";
  let t = s.table and w = s.weights and c = s.counts in
  let i = ref 0 and r = ref r in
  while !r >= w.(!i) do
    r := !r - w.(!i);
    incr i
  done;
  let i = !i in
  c.(t.pre_a.(i)) <- c.(t.pre_a.(i)) - 1;
  c.(t.pre_b.(i)) <- c.(t.pre_b.(i)) - 1;
  c.(t.post_a.(i)) <- c.(t.post_a.(i)) + 1;
  c.(t.post_b.(i)) <- c.(t.post_b.(i)) + 1;
  s.ones <- s.ones + t.ones_delta.(i);
  let deps = t.deps.(i) in
  for k = 0 to Array.length deps - 1 do
    let j = deps.(k) in
    let v = pairs c t.pre_a.(j) t.pre_b.(j) * t.mult.(j) in
    s.total <- s.total + v - w.(j);
    w.(j) <- v
  done;
  s.updates <- s.updates + Array.length deps

(* Consensus status as an int: no polymorphic compare in the loop. *)
let undecided = 2

let status_code ones n = if ones = n then 1 else if ones = 0 then 0 else undecided

let run clock ~rng p c0 =
  let n = Mset.size c0 in
  let s = state clock p c0 in
  (* [horizon] bounds the clock, [max_fired] the productive firings;
     [per_weight] turns a weight into a per-interaction probability
     (step clock) or a rate (continuous clock) *)
  let steps_clock, horizon, max_fired, quiet, per_weight =
    match clock with
    | Steps { max_steps; quiet_steps } ->
      ( true,
        float_of_int max_steps,
        max_int,
        float_of_int quiet_steps,
        1.0 /. float_of_int (s.table.lcm * (n * (n - 1) / 2)) )
    | Continuous { max_steps; quiet_time; scale } ->
      (false, infinity, max_steps, quiet_time, scale)
  in
  (* the step clock's null-run rate -log(1 - W/Z), with Z = L·n(n-1)/2
     the weight of all pairs, memoised by W: a run that wanders among a
     few configurations revisits the same totals *)
  let memo_w = Array.make 256 (-1) and memo_rate = Array.make 256 0.0 in
  let now = ref 0.0 and last_change = ref 0.0 and fired = ref 0 in
  let status = ref (status_code s.ones n) in
  let running = ref true and quiet_stop = ref false and inert = ref false in
  while !running do
    let deadline = if !status = undecided then infinity else !last_change +. quiet in
    if !now >= deadline then begin
      quiet_stop := true;
      running := false
    end
    else if !now >= horizon || !fired >= max_fired then running := false
    else if s.total = 0 && not steps_clock then begin
      inert := true;
      running := false
    end
    else begin
      let w = s.total in
      (* clock reading of the next productive firing; on the step clock
         the interactions in between are a geometric run of nulls *)
      let next =
        if w = 0 then infinity
        else
          let e = -.log (1.0 -. Splitmix64.float_unit rng) in
          if steps_clock then begin
            let h = w land 255 in
            if memo_w.(h) <> w then begin
              memo_w.(h) <- w;
              memo_rate.(h) <- -.log1p (-.float_of_int w *. per_weight)
            end;
            (* nulls before the firing: floor of an exponential over the
               rate, geometric with success probability W/Z. Truncation
               is that floor; past the horizon the count no longer
               matters and may not fit an int. *)
            let nulls = e /. memo_rate.(h) in
            !now +. 1.0 +. (if nulls < horizon then Float.of_int (truncate nulls) else nulls)
          end
          else !now +. (e /. (float_of_int w *. per_weight))
      in
      if deadline < next && deadline <= horizon then begin
        (* the quiet window closes first: the step clock stops on the
           null interaction that closes it, the continuous clock (which
           ticks only at firings) when the next firing is due *)
        now := if steps_clock then deadline else next;
        quiet_stop := true;
        running := false
      end
      else if next > horizon then begin
        now := horizon;
        running := false
      end
      else begin
        now := next;
        fire s (Splitmix64.int_below rng w);
        incr fired;
        let st = status_code s.ones n in
        if st <> !status then begin
          status := st;
          last_change := next
        end
      end
    end
  done;
  {
    time = !now;
    fired = !fired;
    last_change = !last_change;
    output = (if !status = undecided then None else Some (!status = 1));
    final = Mset.of_array s.counts;
    converged = !quiet_stop || !inert;
    inert = !inert;
    updates = s.updates;
  }
