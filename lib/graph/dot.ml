let to_string ?(name = "G") ?(highlight_vertices = []) ?(highlight_edges = []) g =
  let buf = Buffer.create 256 in
  let vset = Hashtbl.create 16 and eset = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace vset v ()) highlight_vertices;
  List.iter (fun e -> Hashtbl.replace eset e ()) highlight_edges;
  Buffer.add_string buf (Printf.sprintf "graph %s {\n" name);
  Graph.iter_vertices g ~f:(fun v ->
      if Hashtbl.mem vset v then
        Buffer.add_string buf
          (Printf.sprintf "  %d [style=filled, fillcolor=indianred];\n" v)
      else Buffer.add_string buf (Printf.sprintf "  %d;\n" v));
  Graph.iter_edges g ~f:(fun id e ->
      if Hashtbl.mem eset id then
        Buffer.add_string buf
          (Printf.sprintf "  %d -- %d [color=blue, penwidth=2.0];\n" e.Graph.u e.Graph.v)
      else Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" e.Graph.u e.Graph.v));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
