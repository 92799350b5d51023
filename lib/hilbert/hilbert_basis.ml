let dot (u : int array) (v : int array) =
  let acc = ref 0 in
  for i = 0 to Array.length u - 1 do
    acc := !acc + (u.(i) * v.(i))
  done;
  !acc

let vec_leq (u : int array) (v : int array) =
  let n = Array.length u in
  let rec go i = i >= n || (u.(i) <= v.(i) && go (i + 1)) in
  go 0

let is_zero (u : int array) = Array.for_all (fun x -> x = 0) u

(* Support bitmask, coordinates >= 62 lumped into the top bit:
   [b <= y] requires [support b ⊆ support y]. *)
let bit j = 1 lsl (if j < 62 then j else 62)

let support_mask (y : int array) =
  let m = ref 0 in
  for j = 0 to Array.length y - 1 do
    if y.(j) > 0 then m := !m lor bit j
  done;
  !m

(* [b <= y + e_j] for a [b] with [b(j) = y(j) + 1]: coordinate [j] is
   skipped. *)
let rec leq_except (b : int array) (y : int array) j i =
  i >= Array.length y
  || ((i = j || b.(i) <= y.(i)) && leq_except b y j (i + 1))

(* Some [(mask, b)] of a bucket lies below [y + e_j], whose support
   mask is [m]. *)
let rec dominated_in m y j = function
  | [] -> false
  | (mb, b) :: rest ->
    (mb land lnot m = 0 && leq_except b y j 0) || dominated_in m y j rest

type Obs.Budget.partial += Partial_basis of int array list

let m_solves = Obs.Metrics.counter "hilbert.solves"
let m_candidates = Obs.Metrics.counter "hilbert.candidates"
let m_pruned_scalar = Obs.Metrics.counter "hilbert.pruned_scalar"
let m_pruned_dominated = Obs.Metrics.counter "hilbert.pruned_dominated"
let m_pruned_duplicate = Obs.Metrics.counter "hilbert.pruned_duplicate"
let m_basis = Obs.Metrics.counter "hilbert.basis_elements"

(* One criterion-passing extension, as computed by the parallel phase:
   either already dominated by a basis element harvested at this level's
   start (neither its vector nor its defect is needed: within a round
   domination depends on the vector alone, so a dominated vector never
   equals a live one and is never a duplicate), or a live candidate
   carrying its defect. The duplicate classification cannot be decided
   in parallel — it depends on the order extensions are admitted — so
   it happens in the sequential reduction. *)
type extension =
  | Dominated
  | Live of int array * int array

(* frontier vectors per pool task *)
let chunk = 16

let solve_eq ?(jobs = 1) ?(max_candidates = 5_000_000)
    ?(scalar_criterion = true) sys =
  (* The level's duplicate table, hashed on every coordinate: the
     polymorphic hash reads only the first ten. A local instance, so
     the module keeps no state. *)
  let module Seen = Hashtbl.Make (struct
    type t = int array

    let equal : t -> t -> bool = ( = )

    let hash (a : t) =
      let h = ref 0 in
      for i = 0 to Array.length a - 1 do
        h := (!h lxor a.(i)) * 0x2545F4914F6CDD1D
      done;
      !h lxor (!h lsr 29)
  end) in
  let v = sys.Diophantine.num_vars in
  let columns =
    Array.init v (fun j ->
        Array.map (fun row -> row.(j)) sys.Diophantine.rows)
  in
  let unit j =
    let y = Array.make v 0 in
    y.(j) <- 1;
    y
  in
  let basis = ref [] in
  (* The domination test is the completion's hot loop. The completion
     is breadth-first by norm, so no harvested element lies below a
     frontier vector [y]: when [y] (norm k) was admitted it was tested
     against every element of norm < k, and a level-k element below [y]
     would equal it. Hence a basis element [b] is below the extension
     [y + e_j] only if [b(j) = y(j) + 1], and [by_coord.(j).(c)] holds
     exactly the elements with [b(j) = c > 0], each with its support
     mask, so one mask test rejects most of the bucket without touching
     the arrays. *)
  let by_coord = Array.make v [||] in
  let candidates = ref 0 in
  (* Contejean–Devie completion accounting: extensions vetoed by the
     scalar-product criterion vs. dropped as duplicates of this level
     vs. dominated by an already-harvested basis element. Local refs;
     published once at the end. *)
  let pruned_scalar = ref 0 in
  let pruned_duplicate = ref 0 in
  let pruned_dominated = ref 0 in
  let levels = ref 0 in
  let progress = Obs.Progress.create "hilbert.solve" in
  (* [y + e_j] is dominated, for a frontier vector [y] of mask [my] *)
  let dominated_ext y my j =
    let c = y.(j) + 1 in
    let buckets = by_coord.(j) in
    c < Array.length buckets && dominated_in (my lor bit j) y j buckets.(c)
  in
  let harvest y =
    basis := y :: !basis;
    let entry = (support_mask y, y) in
    Array.iteri
      (fun j c ->
        if c > 0 then begin
          if c >= Array.length by_coord.(j) then
            by_coord.(j) <- Array.append by_coord.(j) (Array.make (c + 1) []);
          by_coord.(j).(c) <- entry :: by_coord.(j).(c)
        end)
      y
  in
  let frontier = ref (List.init v (fun j -> (unit j, columns.(j)))) in
  (* Each completion round fans the extension work — the scalar
     criterion and, above all, the domination test — out over the pool;
     the per-task slots are then reduced sequentially in (task, j)
     order, which is exactly the sequential path's iteration order. The
     basis and its index are only extended during the harvest (on the
     calling domain, before the round opens), so the index the workers
     read is the same one the sequential path uses, and every counter,
     the frontier order, the seen-duplicate classification and the
     budget trip point are byte-identical for any [jobs]. *)
  let tasks = ref [||] in
  let slots = ref [||] in
  let pending = ref false in
  let budget_trip () =
    raise
      (Obs.Budget.exceeded
         ~partial:(Partial_basis (List.sort_uniq Stdlib.compare !basis))
         ~source:"hilbert.solve_eq" ~resource:"candidates"
         ~limit:(float_of_int max_candidates)
         ~consumed:
           [
             ("candidates", float_of_int !candidates);
             ("levels", float_of_int !levels);
             ("basis", float_of_int (List.length !basis));
           ]
         ())
  in
  let next () =
    if !pending then begin
      pending := false;
      let seen = Seen.create 256 in
      let next_frontier = ref [] in
      Array.iter
        (fun (vetoes, exts) ->
          pruned_scalar := !pruned_scalar + vetoes;
          List.iter
            (fun ext ->
              match ext with
              | Dominated -> incr pruned_dominated
              | Live (y', defect') ->
                if Seen.mem seen y' then incr pruned_duplicate
                else begin
                  Seen.add seen y' ();
                  incr candidates;
                  if !candidates > max_candidates then budget_trip ();
                  next_frontier := (y', defect') :: !next_frontier
                end)
            exts)
        !slots;
      (* no reversal: the sequential path also accumulates the next
         level by consing, so its frontier order is the reverse of
         admission order *)
      frontier := !next_frontier
    end;
    match !frontier with
    | [] -> None
    | fr ->
      incr levels;
      Obs.Progress.tick progress (fun () ->
          Printf.sprintf "level %d: frontier %d, %d candidates, basis %d"
            !levels (List.length fr) !candidates (List.length !basis));
      (* First harvest this level's solutions, then extend the rest: a
         solution at the current level must prune its level-mates'
         extensions. *)
      let solutions, others = List.partition (fun (_, defect) -> is_zero defect) fr in
      (* no solution is dominated: the frontier holds no vector above a
         harvested element *)
      List.iter (fun (y, _) -> harvest y) solutions;
      tasks := Array.of_list others;
      let n = Array.length !tasks in
      if n = 0 then None
      else begin
        slots := Array.make n (0, []);
        pending := true;
        Some n
      end
  in
  (* publish even on the exceptional exit (candidate budget exceeded),
     so ablations can read how far a diverging search got *)
  Fun.protect
    ~finally:(fun () ->
      if Obs.Metrics.enabled () then begin
        Obs.Metrics.incr m_solves;
        Obs.Metrics.add m_candidates !candidates;
        Obs.Metrics.add m_pruned_scalar !pruned_scalar;
        Obs.Metrics.add m_pruned_dominated !pruned_dominated;
        Obs.Metrics.add m_pruned_duplicate !pruned_duplicate
      end)
    (fun () ->
      Obs.Trace.with_span "hilbert.solve_eq" ~cat:"hilbert"
        ~args:
          [
            ("num_vars", string_of_int v);
            ("scalar_criterion", string_of_bool scalar_criterion);
          ]
        (fun () ->
          ignore
            (Pool.run_rounds ~jobs ~chunk ~name:"hilbert" ~next
               (fun ~lo ~hi ->
                 let tasks = !tasks and slots = !slots in
                 for i = lo to hi - 1 do
                   let y, defect = tasks.(i) in
                   let my = support_mask y in
                   let vetoes = ref 0 in
                   let exts = ref [] in
                   for j = v - 1 downto 0 do
                     if (not scalar_criterion) || dot defect columns.(j) < 0
                     then begin
                       if dominated_ext y my j then exts := Dominated :: !exts
                       else begin
                         let y' = Array.copy y in
                         y'.(j) <- y'.(j) + 1;
                         let defect' =
                           Array.mapi (fun i d -> d + columns.(j).(i)) defect
                         in
                         exts := Live (y', defect') :: !exts
                       end
                     end
                     else incr vetoes
                   done;
                   slots.(i) <- (!vetoes, !exts)
                 done))));
  Obs.Progress.finish progress (fun () ->
      Printf.sprintf "%d levels, %d candidates, basis %d" !levels !candidates
        (List.length !basis));
  let result = List.sort_uniq Stdlib.compare !basis in
  if Obs.Metrics.enabled () then Obs.Metrics.add m_basis (List.length result);
  result

(* Lift [A·y >= 0] to the equality system [A·y - s = 0]. *)
let lift sys =
  let e = Diophantine.num_constraints sys in
  let v = sys.Diophantine.num_vars in
  let rows =
    Array.mapi
      (fun i row ->
        Array.init (v + e) (fun j ->
            if j < v then row.(j) else if j = v + i then -1 else 0))
      sys.Diophantine.rows
  in
  Diophantine.make rows ~num_vars:(v + e)

let solve_geq ?jobs ?max_candidates ?scalar_criterion sys =
  let v = sys.Diophantine.num_vars in
  solve_eq ?jobs ?max_candidates ?scalar_criterion (lift sys)
  |> List.map (fun y -> Array.sub y 0 v)
  |> List.sort_uniq Stdlib.compare

let decompose_with ~elements y =
  (* Greedy subtraction over any system closed under truncated
     subtraction of dominated elements. *)
  let rec go y acc =
    if is_zero y then Some (List.rev acc)
    else
      match List.find_opt (fun b -> (not (is_zero b)) && vec_leq b y) elements with
      | None -> None
      | Some b ->
        let y' = Array.mapi (fun i x -> x - b.(i)) y in
        go y' (b :: acc)
  in
  go y []

let decompose_eq sys ~basis y =
  if not (Diophantine.is_solution_eq sys y) then None
  else decompose_with ~elements:basis y

let decompose_geq sys ~basis y =
  if not (Diophantine.is_solution_geq sys y) then None
  else begin
    let lift_vec b = Array.append b (Diophantine.eval sys b) in
    let lifted_basis = List.map lift_vec basis in
    let v = sys.Diophantine.num_vars in
    match decompose_with ~elements:lifted_basis (lift_vec y) with
    | None -> None
    | Some parts -> Some (List.map (fun b -> Array.sub b 0 v) parts)
  end

let verify_minimal sys ~eq elements =
  let solution =
    if eq then Diophantine.is_solution_eq sys else Diophantine.is_solution_geq sys
  in
  (* Indecomposable elements of an inequality system may be pointwise
     comparable; incomparability must be checked on the slack lift. *)
  let reps =
    if eq then elements
    else List.map (fun b -> Array.append b (Diophantine.eval sys b)) elements
  in
  List.for_all (fun y -> (not (is_zero y)) && solution y) elements
  && List.for_all
       (fun y -> List.for_all (fun y' -> y == y' || not (vec_leq y' y)) reps)
       reps
