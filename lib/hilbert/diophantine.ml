type t = {
  rows : int array array;
  num_vars : int;
}

let make rows ~num_vars =
  if num_vars < 0 then invalid_arg "Diophantine.make: negative arity";
  Array.iter
    (fun row ->
      if Array.length row <> num_vars then
        invalid_arg "Diophantine.make: row arity mismatch")
    rows;
  { rows; num_vars }

let num_constraints sys = Array.length sys.rows

let eval sys y =
  if Array.length y <> sys.num_vars then
    invalid_arg "Diophantine.eval: arity mismatch";
  Array.map
    (fun row ->
      let acc = ref 0 in
      Array.iteri (fun j c -> acc := !acc + (c * y.(j))) row;
      !acc)
    sys.rows

let is_solution_eq sys y =
  Array.for_all (fun v -> v >= 0) y && Array.for_all (fun v -> v = 0) (eval sys y)

let is_solution_geq sys y =
  Array.for_all (fun v -> v >= 0) y && Array.for_all (fun v -> v >= 0) (eval sys y)

let pottier_bound sys =
  let row_abs_sum row = Array.fold_left (fun acc c -> acc + abs c) 0 row in
  let m = Array.fold_left (fun acc row -> Stdlib.max acc (row_abs_sum row)) 0 sys.rows in
  Bignat.pow (Bignat.of_int (1 + m)) (num_constraints sys)
