type t = {
  title : string;
  columns : string array;
  mutable rows : string array list;  (* reversed *)
}

let create ~title ~columns =
  { title; columns = Array.of_list columns; rows = [] }

let add_row t cells =
  let width = Array.length t.columns in
  let given = List.length cells in
  if given > width then
    invalid_arg
      (Printf.sprintf "Table.add_row: %d cells for %d columns in table %S" given
         width t.title);
  let row = Array.make width "" in
  List.iteri (fun i cell -> row.(i) <- cell) cells;
  t.rows <- row :: t.rows

let to_string t =
  let rows = List.rev t.rows in
  let width = Array.length t.columns in
  let col_width = Array.map String.length t.columns in
  List.iter
    (fun row ->
      Array.iteri (fun i cell -> col_width.(i) <- max col_width.(i) (String.length cell)) row)
    rows;
  let buf = Buffer.create 512 in
  let hline () =
    for i = 0 to width - 1 do
      Buffer.add_string buf (String.make (col_width.(i) + 2) '-');
      if i < width - 1 then Buffer.add_char buf '+'
    done;
    Buffer.add_char buf '\n'
  in
  let render_row row =
    for i = 0 to width - 1 do
      Buffer.add_char buf ' ';
      Buffer.add_string buf row.(i);
      Buffer.add_string buf (String.make (col_width.(i) - String.length row.(i) + 1) ' ');
      if i < width - 1 then Buffer.add_char buf '|'
    done;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  render_row t.columns;
  hline ();
  List.iter render_row rows;
  Buffer.contents buf

let print t = print_string (to_string t)

let chart ~height ~width named_points =
  let all = List.concat_map snd named_points in
  match all with
  | [] -> "(no data)\n"
  | _ ->
      let xs = List.map fst all and ys = List.map snd all in
      let fmin l = List.fold_left min (List.hd l) l in
      let fmax l = List.fold_left max (List.hd l) l in
      let x0 = fmin xs and x1 = fmax xs in
      let y0 = min 0.0 (fmin ys) and y1 = fmax ys in
      let y1 = if y1 = y0 then y0 +. 1.0 else y1 in
      let x1 = if x1 = x0 then x0 +. 1.0 else x1 in
      let grid = Array.make_matrix height width ' ' in
      List.iteri
        (fun series_index (_, points) ->
          let marker =
            "*ox+#@%&"
            |> fun s -> s.[series_index mod String.length s]
          in
          List.iter
            (fun (x, y) ->
              let col =
                int_of_float ((x -. x0) /. (x1 -. x0) *. float_of_int (width - 1))
              in
              let row =
                height - 1
                - int_of_float ((y -. y0) /. (y1 -. y0) *. float_of_int (height - 1))
              in
              if row >= 0 && row < height && col >= 0 && col < width then
                grid.(row).(col) <- marker)
            points)
        named_points;
      let buf = Buffer.create (height * (width + 12)) in
      Array.iteri
        (fun row line ->
          let y_tick =
            y1 -. (float_of_int row /. float_of_int (height - 1) *. (y1 -. y0))
          in
          Buffer.add_string buf (Printf.sprintf "%10.3f |" y_tick);
          Buffer.add_string buf (String.init width (fun c -> line.(c)));
          Buffer.add_char buf '\n')
        grid;
      Buffer.add_string buf (String.make 11 ' ');
      Buffer.add_char buf '+';
      Buffer.add_string buf (String.make width '-');
      Buffer.add_char buf '\n';
      Buffer.add_string buf
        (Printf.sprintf "%s%.3f%s%.3f\n" (String.make 12 ' ') x0
           (String.make (max 1 (width - 12)) ' ')
           x1);
      Buffer.contents buf

let multi_series ~title ~x_label ~y_label named_points =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "== %s ==\n(y: %s, x: %s)\n" title y_label x_label);
  List.iteri
    (fun i (name, points) ->
      let marker = "*ox+#@%&".[i mod 8] in
      Buffer.add_string buf (Printf.sprintf "  series '%c': %s\n" marker name);
      Buffer.add_string buf "    ";
      List.iter
        (fun (x, y) -> Buffer.add_string buf (Printf.sprintf "(%g, %g) " x y))
        points;
      Buffer.add_char buf '\n')
    named_points;
  Buffer.add_string buf (chart ~height:16 ~width:60 named_points);
  Buffer.contents buf

let series ~title ~x_label ~y_label points =
  multi_series ~title ~x_label ~y_label [ ("data", points) ]
