let coord_at_least (v : Omega_vec.t) i k =
  match Omega_vec.get v i with Omega_vec.Omega -> true | Omega_vec.Fin n -> n >= k

let enabled (v : Omega_vec.t) (a, b) =
  if a = b then coord_at_least v a 2
  else coord_at_least v a 1 && coord_at_least v b 1

let apply (v : Omega_vec.t) (delta : Intvec.t) : Omega_vec.t =
  Array.mapi
    (fun i c ->
      match c with
      | Omega_vec.Omega -> Omega_vec.Omega
      | Omega_vec.Fin n -> Omega_vec.Fin (n + Intvec.get delta i))
    v

(* ω-acceleration: any ancestor u strictly below v' witnesses a
   self-covering pump, so the strictly increased coordinates go to ω. *)
let accelerate ancestors v' =
  let accelerated = ref false in
  let result = ref v' in
  List.iter
    (fun u ->
      if Omega_vec.leq u !result && not (Omega_vec.equal u !result) then begin
        let bumped =
          Array.mapi
            (fun i c ->
              match (Omega_vec.get u i, c) with
              | Omega_vec.Fin a, Omega_vec.Fin b when a < b -> Omega_vec.Omega
              | _, c -> c)
            !result
        in
        if not (Omega_vec.equal bumped !result) then begin
          accelerated := true;
          result := bumped
        end
      end)
    ancestors;
  (!result, !accelerated)

type Obs.Budget.partial += Partial_clover of Omega_vec.t list

(* The tree from [root], depth-first over (vector, ancestor path); the
   node budget trips under the name [source]. *)
let tree ~source ~max_nodes p root =
  let nt = Population.num_transitions p in
  let nodes = ref 0 in
  let accelerations = ref 0 in
  let discovered : Omega_vec.t list ref = ref [] in
  let covered v = List.exists (fun u -> Omega_vec.leq v u) !discovered in
  let budget () =
    (* the maximal elements seen so far under-approximate the clover;
       a budgeted caller can still use them as a partial answer *)
    raise
      (Obs.Budget.exceeded
         ~partial:(Partial_clover (Downset.keep_maximal !discovered))
         ~source ~resource:"nodes"
         ~limit:(float_of_int max_nodes)
         ~consumed:
           [
             ("nodes", float_of_int !nodes);
             ("accelerations", float_of_int !accelerations);
           ]
         ())
  in
  let rec expand v ancestors =
    incr nodes;
    if !nodes > max_nodes then budget ();
    discovered := v :: !discovered;
    let ancestors' = v :: ancestors in
    for t = 0 to nt - 1 do
      let tr = p.Population.transitions.(t) in
      if enabled v tr.Population.pre then begin
        let v' = apply v (Population.displacement p t) in
        let v', accel = accelerate ancestors' v' in
        if accel then incr accelerations;
        if not (covered v') then expand v' ancestors'
      end
    done
  in
  expand root [];
  Downset.keep_maximal !discovered

let clover ?(max_nodes = 1_000_000) p c0 =
  tree ~source:"karp_miller.clover" ~max_nodes p
    (Omega_vec.finite (Mset.to_intvec c0))

let coverable p ~from ~target =
  let cl = clover p from in
  List.exists (Omega_vec.member target) cl

let downset p c0 = Downset.of_max_elements (Population.num_states p) (clover p c0)

(* rooted at ω on the input states and the leader counts elsewhere *)
let clover_parametric ?(max_nodes = 1_000_000) p =
  let root =
    Array.init (Population.num_states p) (fun q ->
        if Array.mem q p.Population.input_map then Omega_vec.Omega
        else Omega_vec.Fin (Mset.get p.Population.leaders q))
  in
  tree ~source:"karp_miller.clover_parametric" ~max_nodes p root
