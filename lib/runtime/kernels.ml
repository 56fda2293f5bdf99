(* Dense kernels shared by the reference interpreter and the run-time
   library.  Plain arrays in, no simulator, no allocation per element.
   Both callers charge their own modeled cost; these only do the work. *)

(* C += A * B over row-major arrays: A is m x k starting at [aoff], B is
   k x n, C is m x n.  Every C element adds its terms in kk order onto
   its current value, so the result is bit-identical to the textbook
   i-j-k loop with an accumulator started at C's value (0. for a fresh
   C) -- NaN, infinities and signed zeros included.  The i-k-j order
   keeps the inner loop unit-stride over B and C; with a single column
   (matrix-vector, dot product) the dot-product form with a register
   accumulator is faster and adds in the same order. *)
let gemm ~m ~k ~n (a : float array) ~aoff (b : float array) (c : float array) =
  if n = 1 then
    for i = 0 to m - 1 do
      let ai = aoff + (i * k) in
      let acc = ref c.(i) in
      for kk = 0 to k - 1 do
        acc := !acc +. (a.(ai + kk) *. b.(kk))
      done;
      c.(i) <- !acc
    done
  else
    for i = 0 to m - 1 do
      let ai = aoff + (i * k) and ci = i * n in
      for kk = 0 to k - 1 do
        let aik = a.(ai + kk) and bk = kk * n in
        for j = 0 to n - 1 do
          c.(ci + j) <- c.(ci + j) +. (aik *. b.(bk + j))
        done
      done
    done

(* Visit the section [sels] of a row-major array with extents [dims]:
   [f pos off] for every selected element in row-major order of the
   selection, [pos] being its row-major position in the selection and
   [off] its offset in the source.  A repeated subscript is visited
   once per occurrence, in that order, so in a store the last write
   wins.  Only leading-axis positions [lo, hi) of the selection are
   visited (default: all of them).  [dims] and [sels] have the same
   length, at least 1, and the caller has checked every subscript of
   [sels.(axis)] against [dims.(axis)]. *)
let walk ?(lo = 0) ?hi (dims : int array) (sels : int array array) f =
  let r = Array.length dims in
  let stride = Array.make r 1 in
  for axis = r - 2 downto 0 do
    stride.(axis) <- stride.(axis + 1) * dims.(axis + 1)
  done;
  let hi = match hi with Some h -> h | None -> Array.length sels.(0) in
  let rec go axis pos off =
    let s = sels.(axis) in
    let j0 = if axis = 0 then lo else 0
    and j1 = if axis = 0 then hi else Array.length s in
    let pos = pos * Array.length s in
    if axis = r - 1 then
      for j = j0 to j1 - 1 do
        f (pos + j) (off + s.(j))
      done
    else
      let st = stride.(axis) in
      for j = j0 to j1 - 1 do
        go (axis + 1) (pos + j) (off + (s.(j) * st))
      done
  in
  go 0 0 0
