(* Plain dense rank-N arrays (no distribution, no simulator types).

   The leading (frame) axis varies slowest: element (d0, ..., dn-1, i, j)
   of a tensor with dims [| D0; ...; R; C |] lives at the row-major
   linear offset ((..(d0*D1 + d1)..)*R + i)*C + j.  The trailing two
   axes are the matrix "cell"; frame broadcasting replicates a matrix
   operand over every leading slice, which in this layout is a plain
   [offset mod cell_numel] read. *)

type t = { dims : int array; data : float array }

let rank t = Array.length t.dims
let numel t = Array.fold_left ( * ) 1 t.dims

let create dims =
  { dims = Array.copy dims; data = Array.make (Array.fold_left ( * ) 1 dims) 0. }

let init dims f =
  { dims = Array.copy dims; data = Array.init (Array.fold_left ( * ) 1 dims) f }

let copy t = { t with data = Array.copy t.data }
let map f t = { t with data = Array.map f t.data }

let map2 f a b =
  if a.dims <> b.dims then
    invalid_arg
      (Printf.sprintf "nonconformant tensor operands (%s vs %s)"
         (String.concat "x" (Array.to_list (Array.map string_of_int a.dims)))
         (String.concat "x" (Array.to_list (Array.map string_of_int b.dims))));
  { a with data = Array.map2 f a.data b.data }

(* Rows/cols of the trailing matrix cell; scalar-cell tensors never
   arise (the frontend only builds rank >= 3 with a full cell). *)
let cell_rows t = t.dims.(rank t - 2)
let cell_cols t = t.dims.(rank t - 1)
let cell_numel t = cell_rows t * cell_cols t

let fold f init t = Array.fold_left f init t.data

let equal a b = a.dims = b.dims && a.data = b.data
