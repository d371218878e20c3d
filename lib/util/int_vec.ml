type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 16) () = { data = Array.make (max capacity 1) 0; len = 0 }

let length v = v.len

let check v i =
  if i < 0 || i >= v.len then invalid_arg "Int_vec: index out of bounds"

let get v i =
  check v i;
  v.data.(i)

let set v i x =
  check v i;
  v.data.(i) <- x

let grow v =
  let cap = Array.length v.data in
  let data = Array.make (2 * cap) 0 in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v;
  let i = v.len in
  v.data.(i) <- x;
  v.len <- i + 1;
  i

let pop v =
  if v.len = 0 then invalid_arg "Int_vec.pop: empty vector";
  v.len <- v.len - 1;
  v.data.(v.len)

