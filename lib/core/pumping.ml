type witness = {
  protocol : Population.t;
  a : int;
  b : int;
  c_a : Mset.t;
  c_ab : Mset.t;
  omega : Omega_vec.t;
}

let stable_union_downset analysis = Stable_sets.stable_union analysis

(* First stable configuration in BFS order from [c0]. *)
let first_stable p sc c0 =
  let g = Configgraph.explore p c0 in
  let n = Configgraph.num_configs g in
  let rec go i =
    if i >= n then None
    else begin
      let c = g.Configgraph.configs.(i) in
      if Downset.mem c sc then Some c else go (i + 1)
    end
  in
  go 0

let add_inputs p c j =
  let x = Potential.input_state p in
  Mset.add c (Mset.scale j (Mset.singleton (Mset.dim c) x))

let sequence p analysis ~first ~count =
  let sc = stable_union_downset analysis in
  let rec go i c_prev acc remaining =
    if remaining = 0 then List.rev acc
    else begin
      let start =
        match c_prev with
        | None -> Population.initial_single p i
        | Some c -> add_inputs p c 1
      in
      match first_stable p sc start with
      | None -> failwith "Pumping.sequence: no stable configuration reachable"
      | Some c -> go (i + 1) (Some c) ((i, c) :: acc) (remaining - 1)
    end
  in
  go first None [] count

(* The Dickson-plus-basis-element condition of Theorem 4.5: C_k <= C_l,
   some maximal ω-vector v of SC contains C_l, and the difference is
   supported on v's ω-coordinates (so both lie in the same basis element
   (B, S) with B = C_k zeroed on S). *)
let compatible sc_vectors c_k c_l =
  if not (Mset.leq c_k c_l) then None
  else begin
    let diff = Intvec.sub (Mset.to_intvec c_l) (Mset.to_intvec c_k) in
    let diff_support = Intvec.support diff in
    List.find_opt
      (fun v ->
        Omega_vec.member c_l v
        && List.for_all
             (fun q -> match Omega_vec.get v q with Omega_vec.Omega -> true | _ -> false)
             diff_support)
      sc_vectors
  end

let find_witness p ~max_input =
  if Array.length p.Population.input_vars <> 1 then
    Error "single-input protocols only"
  else begin
    let analysis = Stable_sets.analyse p in
    let sc_vectors = Downset.max_elements (stable_union_downset analysis) in
    match sequence p analysis ~first:2 ~count:(max_input - 1) with
    | exception Failure msg -> Error msg
    | seq ->
      let arr = Array.of_list seq in
      let n = Array.length arr in
      let rec scan k l =
        if k >= n then Error "no Dickson witness below the cutoff"
        else if l >= n then scan (k + 1) (k + 2)
        else begin
          let a, c_a = arr.(k) and ab, c_ab = arr.(l) in
          match compatible sc_vectors c_a c_ab with
          | Some v -> Ok { protocol = p; a; b = ab - a; c_a; c_ab; omega = v }
          | None -> scan k (l + 1)
        end
      in
      scan 0 1
  end

let reaches p c0 target =
  let g = Configgraph.explore p c0 in
  Configgraph.can_reach_config g ~src:g.Configgraph.root target

let check w =
  let p = w.protocol in
  let analysis = Stable_sets.analyse p in
  let sc = stable_union_downset analysis in
  let sc_vectors = Downset.max_elements sc in
  Mset.leq w.c_a w.c_ab
  && w.b >= 1
  && Downset.mem w.c_a sc
  && Downset.mem w.c_ab sc
  && (match compatible sc_vectors w.c_a w.c_ab with
     | Some _ -> true
     | None -> false)
  && List.exists (Omega_vec.equal w.omega) sc_vectors
  && Omega_vec.member w.c_ab w.omega
  && reaches p (Population.initial_single p w.a) w.c_a
  && reaches p (add_inputs p w.c_a w.b) w.c_ab

let pp fmt w =
  let names = w.protocol.Population.states in
  Format.fprintf fmt
    "@[<v>pumping witness: eta <= %d (period %d)@,C_a = %a@,C_a+b = %a@,basis vector %a@]"
    w.a w.b (Mset.pp ~names) w.c_a (Mset.pp ~names) w.c_ab
    (Omega_vec.pp ~names) w.omega
