(* The body of [Hilbert_basis.solve_eq] that the (coordinate, value)
   domination index and the full-vector duplicate table replaced, kept
   verbatim as the differential oracle: each extension is tested
   against every harvested basis element (support mask first), the
   level's duplicates live in a polymorphic [Hashtbl], a dominated
   extension carries its vector into the reduction, harvested solutions
   are re-tested for domination, and [minimize] filters the basis
   quadratically. It publishes the same [hilbert.*] counters and raises
   the same [Hilbert_basis.Partial_basis] payload, so tests compare
   results, counter diffs and budget trips for equality. *)

let dot (u : int array) (v : int array) =
  let acc = ref 0 in
  Array.iteri (fun i x -> acc := !acc + (x * v.(i))) u;
  !acc

let vec_leq (u : int array) (v : int array) =
  let n = Array.length u in
  let rec go i = i >= n || (u.(i) <= v.(i) && go (i + 1)) in
  go 0

let is_zero (u : int array) = Array.for_all (fun x -> x = 0) u

(* Keep only the pointwise-minimal vectors. *)
let minimize vectors =
  List.filter
    (fun y ->
      not (List.exists (fun y' -> y' <> y && vec_leq y' y) vectors))
    vectors
  |> List.sort_uniq Stdlib.compare

let m_solves = Obs.Metrics.counter "hilbert.solves"
let m_candidates = Obs.Metrics.counter "hilbert.candidates"
let m_pruned_scalar = Obs.Metrics.counter "hilbert.pruned_scalar"
let m_pruned_dominated = Obs.Metrics.counter "hilbert.pruned_dominated"
let m_pruned_duplicate = Obs.Metrics.counter "hilbert.pruned_duplicate"
let m_basis = Obs.Metrics.counter "hilbert.basis_elements"

(* One criterion-passing extension, as computed by the parallel phase:
   either already dominated by a basis element harvested at this level's
   start (its defect is never needed), or a live candidate carrying its
   defect. The duplicate classification cannot be decided in parallel —
   it depends on the order extensions are admitted — so it happens in
   the sequential reduction. *)
type extension =
  | Dominated of int array
  | Live of int array * int array

(* frontier vectors per pool task, as in [Hilbert_basis] *)
let chunk = 16

let solve_eq ?(jobs = 1) ?(max_candidates = 5_000_000)
    ?(scalar_criterion = true) sys =
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
  (* The domination scan is the completion's hot loop. Each basis
     element is stored with a support bitmask (coordinates >= 62 lumped
     into the top bit): [b <= y] requires [support b ⊆ support y], so a
     one-word mask test rejects most basis elements without touching
     the arrays. A pure filter — the scan's outcome is unchanged. *)
  let support_mask (y : int array) =
    let n = Array.length y in
    let m = ref 0 in
    for j = 0 to n - 1 do
      if y.(j) > 0 then m := !m lor (1 lsl (if j < 62 then j else 62))
    done;
    !m
  in
  let masked_basis = ref [] in
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
  let dominated y =
    let my = support_mask y in
    List.exists
      (fun (mb, b) -> mb land lnot my = 0 && vec_leq b y)
      !masked_basis
  in
  let harvest y =
    basis := y :: !basis;
    masked_basis := (support_mask y, y) :: !masked_basis
  in
  let frontier = ref (List.init v (fun j -> (unit j, columns.(j)))) in
  (* Each completion round fans the extension work — the scalar
     criterion and, above all, the domination scan over the harvested
     basis — out over the pool; the per-task slots are then reduced
     sequentially in (task, j) order, which is exactly the sequential
     path's iteration order. The basis is only extended during the
     harvest (on the calling domain, before the round opens), so the
     domination set the workers read is the same one the sequential
     path uses, and every counter, the frontier order, the
     seen-duplicate classification and the budget trip point are
     byte-identical for any [jobs]. *)
  let tasks = ref [||] in
  let slots = ref [||] in
  let pending = ref false in
  let budget_trip () =
    raise
      (Obs.Budget.exceeded
         ~partial:(Hilbert_basis.Partial_basis (minimize !basis))
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
      let seen = Hashtbl.create 256 in
      let next_frontier = ref [] in
      Array.iter
        (fun (vetoes, exts) ->
          pruned_scalar := !pruned_scalar + vetoes;
          List.iter
            (fun ext ->
              match ext with
              | Dominated y' ->
                if Hashtbl.mem seen y' then incr pruned_duplicate
                else incr pruned_dominated
              | Live (y', defect') ->
                if Hashtbl.mem seen y' then incr pruned_duplicate
                else begin
                  Hashtbl.add seen y' ();
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
      List.iter (fun (y, _) -> if not (dominated y) then harvest y) solutions;
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
                   let vetoes = ref 0 in
                   let exts = ref [] in
                   for j = v - 1 downto 0 do
                     if (not scalar_criterion) || dot defect columns.(j) < 0
                     then begin
                       let y' = Array.copy y in
                       y'.(j) <- y'.(j) + 1;
                       if dominated y' then exts := Dominated y' :: !exts
                       else
                         let defect' =
                           Array.mapi (fun i d -> d + columns.(j).(i)) defect
                         in
                         exts := Live (y', defect') :: !exts
                     end
                     else incr vetoes
                   done;
                   slots.(i) <- (!vetoes, !exts)
                 done))));
  Obs.Progress.finish progress (fun () ->
      Printf.sprintf "%d levels, %d candidates, basis %d" !levels !candidates
        (List.length !basis));
  let result = minimize !basis in
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
