let input_state p =
  if Array.length p.Population.input_vars <> 1 then
    invalid_arg "Potential: single-input protocols only";
  p.Population.input_map.(0)

let system p =
  if not (Population.is_leaderless p) then
    invalid_arg "Potential.system: leaderless protocols only";
  let x = input_state p in
  let d = Population.num_states p in
  let nt = Population.num_transitions p in
  let rows =
    List.filter_map
      (fun q ->
        if q = x then None
        else
          Some
            (Array.init nt (fun t -> Intvec.get (Population.displacement p t) q)))
      (List.init d Fun.id)
  in
  Diophantine.make (Array.of_list rows) ~num_vars:nt

let is_potentially_realisable p pi = Diophantine.is_solution_geq (system p) pi

let basis ?jobs ?max_candidates p =
  Hilbert_basis.solve_geq ?jobs ?max_candidates (system p)

let displacement p pi = Population.displacement_of_multiset p pi

let size (pi : int array) = Array.fold_left ( + ) 0 pi

let min_input p pi =
  let x = input_state p in
  Stdlib.max 0 (-Intvec.get (displacement p pi) x)

let result_config p pi =
  let i = min_input p pi in
  let x = input_state p in
  let delta = displacement p pi in
  let d = Population.num_states p in
  let c =
    Array.init d (fun q ->
        let base = if q = x then i else 0 in
        base + Intvec.get delta q)
  in
  (i, Mset.of_array c)

let decompose p pi =
  let sys = system p in
  Hilbert_basis.decompose_geq sys ~basis:(basis p) pi

let check_corollary_5_7 p basis_elements =
  let xi = Factorial_bounds.xi_of_protocol p in
  let leq_xi n = Bignat.compare (Bignat.of_int n) xi <= 0 in
  let half_xi_ok n = Bignat.compare (Bignat.of_int (2 * n)) xi <= 0 in
  List.for_all
    (fun pi ->
      let i, c = result_config p pi in
      is_potentially_realisable p pi
      && half_xi_ok (size pi)
      && leq_xi i
      && leq_xi (Mset.size c))
    basis_elements
