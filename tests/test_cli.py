"""Tests for the command-line interface and view-set serialization."""

import json

import pytest

from repro.cli import main
from repro.graph.io import write_pattern
from repro.graph.pattern import BoundedPattern
from repro.views.io import (
    extension_from_json,
    extension_to_json,
    read_viewset,
    write_viewset,
)
from repro.views import ViewDefinition, ViewSet
from repro.views.view import materialize

from helpers import build_bounded, build_graph, build_pattern


class TestViewSetSerialization:
    def test_definition_round_trip(self, tmp_path):
        views = ViewSet(
            [ViewDefinition("V", build_pattern({"a": "A", "b": "B"}, [("a", "b")]))]
        )
        path = tmp_path / "views.json"
        write_viewset(views, path)
        loaded = read_viewset(path)
        assert loaded.names() == ["V"]
        assert not loaded.is_materialized("V")

    def test_extension_round_trip(self, tmp_path):
        g = build_graph({1: "A", 2: "B"}, [(1, 2)])
        views = ViewSet(
            [ViewDefinition("V", build_pattern({"a": "A", "b": "B"}, [("a", "b")]))]
        )
        views.materialize(g)
        path = tmp_path / "views.json"
        write_viewset(views, path)
        loaded = read_viewset(path)
        assert loaded.is_materialized("V")
        assert loaded.extension("V").pairs_of(("a", "b")) == {(1, 2)}

    def test_bounded_extension_keeps_distances(self):
        g = build_graph({1: "A", 2: "X", 3: "B"}, [(1, 2), (2, 3)])
        view = ViewDefinition(
            "V", build_bounded({"a": "A", "b": "B"}, [("a", "b", 2)])
        )
        ext = materialize(view, g)
        doc = extension_to_json(ext)
        json.dumps(doc)
        back = extension_from_json(doc)
        assert back.distance_of((1, 3)) == 2
        assert isinstance(back.definition.pattern, BoundedPattern)


class TestCli:
    def test_generate_and_stats(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        views_path = tmp_path / "v.json"
        rc = main([
            "generate", "--dataset", "synthetic", "--nodes", "200",
            "--edges", "500", "--out", str(graph_path),
            "--views", str(views_path),
        ])
        assert rc == 0
        assert graph_path.exists() and views_path.exists()
        rc = main(["stats", "--graph", str(graph_path), "--views", str(views_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nodes: 200" in out

    def test_stats_json_format(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        views_path = tmp_path / "v.json"
        main([
            "generate", "--dataset", "synthetic", "--nodes", "150",
            "--edges", "300", "--out", str(graph_path),
            "--views", str(views_path),
        ])
        main(["materialize", "--graph", str(graph_path), "--views", str(views_path)])
        capsys.readouterr()
        rc = main([
            "stats", "--graph", str(graph_path), "--views", str(views_path),
            "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["graph"]["nodes"] == 150
        assert sum(payload["label_histogram"].values()) >= 150
        assert payload["label_index"]["labels"] == len(payload["label_histogram"])
        assert payload["label_index"]["largest_bucket"] in payload["label_histogram"]
        assert payload["snapshot"]["nodes"] == 150
        assert payload["snapshot"]["token"] >= 1
        assert payload["views"]["cardinality"] == len(payload["views"]["materialized"])
        assert 0 < payload["views"]["extension_fraction"]

    def test_full_workflow(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        views_path = tmp_path / "v.json"
        query_path = tmp_path / "q.json"
        out_path = tmp_path / "result.json"

        main([
            "generate", "--dataset", "amazon", "--nodes", "800",
            "--edges", "2500", "--out", str(graph_path),
            "--views", str(views_path),
        ])
        rc = main(["materialize", "--graph", str(graph_path), "--views", str(views_path)])
        assert rc == 0

        # A query matching one of the cached view shapes (AV1).
        from repro.graph.conditions import P

        book4 = (P("rating") >= 4).with_label("Book")
        q = build_pattern({}, [])
        q.add_node("x", book4)
        q.add_node("y", book4)
        q.add_edge("x", "y")
        write_pattern(q, query_path)

        rc = main([
            "contain", "--query", str(query_path), "--views", str(views_path),
            "--strategy", "minimum",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "contained: yes" in out

        rc = main([
            "query", "--query", str(query_path), "--views", str(views_path),
            "--out", str(out_path),
        ])
        assert rc == 0
        result = json.loads(out_path.read_text())
        assert "x->y" in result

    def test_contain_reports_uncovered(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        views_path = tmp_path / "v.json"
        query_path = tmp_path / "q.json"
        main([
            "generate", "--dataset", "synthetic", "--nodes", "100",
            "--edges", "300", "--out", str(graph_path),
            "--views", str(views_path),
        ])
        q = build_pattern({"a": "zz-unknown", "b": "zz-unknown"}, [("a", "b")])
        write_pattern(q, query_path)
        rc = main(["contain", "--query", str(query_path), "--views", str(views_path)])
        assert rc == 1
        assert "uncovered" in capsys.readouterr().out

    def test_shard_command_text_and_json(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        main([
            "generate", "--dataset", "synthetic", "--nodes", "120",
            "--edges", "360", "--out", str(graph_path),
        ])
        capsys.readouterr()
        rc = main([
            "shard", "--graph", str(graph_path), "--shards", "3",
            "--strategy", "bfs",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bfs partition: 3 shards" in out
        assert "shard 0:" in out and "shard 2:" in out
        rc = main([
            "shard", "--graph", str(graph_path), "--shards", "4",
            "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["partition"]["shards"] == 4
        assert sum(payload["partition"]["sizes"]) == 120
        assert 0.0 <= payload["partition"]["edge_cut_fraction"] <= 1.0
        assert len(payload["per_shard"]) == 4
        for row in payload["per_shard"]:
            assert set(row) == {"nodes", "edges", "ghosts", "labels"}
        # Internal + cut edges account for every edge exactly once.
        total_edges = sum(row["edges"] for row in payload["per_shard"])
        assert total_edges == 360

    def test_stats_json_partition_section(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        main([
            "generate", "--dataset", "synthetic", "--nodes", "100",
            "--edges", "250", "--out", str(graph_path),
        ])
        capsys.readouterr()
        rc = main([
            "stats", "--graph", str(graph_path), "--shards", "2",
            "--partitioner", "label", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        partition = payload["partition"]
        assert partition["strategy"] == "label"
        assert partition["shards"] == 2
        assert sum(partition["sizes"]) == 100
        assert 0.0 <= partition["edge_cut_fraction"] <= 1.0
        # Without --shards the section is absent.
        rc = main(["stats", "--graph", str(graph_path), "--format", "json"])
        assert rc == 0
        assert "partition" not in json.loads(capsys.readouterr().out)

    def test_query_not_contained_errors(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        views_path = tmp_path / "v.json"
        query_path = tmp_path / "q.json"
        main([
            "generate", "--dataset", "synthetic", "--nodes", "100",
            "--edges", "300", "--out", str(graph_path),
            "--views", str(views_path),
        ])
        main(["materialize", "--graph", str(graph_path), "--views", str(views_path)])
        q = build_pattern({"a": "zz-unknown", "b": "zz-unknown"}, [("a", "b")])
        write_pattern(q, query_path)
        rc = main(["query", "--query", str(query_path), "--views", str(views_path)])
        assert rc == 1


class TestServeLoopback:
    """``repro serve`` end to end: a real subprocess on an ephemeral
    port, driven over JSON lines, stopped with SIGINT."""

    TIMEOUT = 60.0

    def test_serve_answers_updates_and_persists(self, tmp_path):
        import os
        import queue
        import signal
        import socket
        import subprocess
        import sys
        import threading

        import repro
        from repro.graph.io import pattern_to_json, read_graph
        from repro.graph.snapshot import SnapshotStore
        from repro.serve.protocol import _encode_result
        from repro.simulation import match

        graph_path = tmp_path / "g.json"
        views_path = tmp_path / "v.json"
        persist = tmp_path / "persist"
        assert main([
            "generate", "--dataset", "amazon", "--nodes", "300",
            "--edges", "900", "--out", str(graph_path),
            "--views", str(views_path),
        ]) == 0
        graph = read_graph(graph_path)
        views = read_viewset(views_path)
        views.materialize(graph)
        name = max(views.names(), key=lambda n: views.extension(n).num_pairs)
        query = views.definition(name).pattern
        nodes = sorted(graph.nodes(), key=repr)
        source, target = next(
            (v, w) for v in nodes for w in reversed(nodes)
            if v != w and not graph.has_edge(v, w)
        )

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--graph", str(graph_path), "--views", str(views_path),
                "--port", "0", "--persist", str(persist),
            ],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env,
        )
        lines: "queue.Queue[str]" = queue.Queue()
        reader = threading.Thread(
            target=lambda: [lines.put(line) for line in proc.stdout],
            daemon=True,
        )
        reader.start()
        try:
            while True:
                line = lines.get(timeout=self.TIMEOUT)
                if line.startswith("serving "):
                    break
            host, port = line.split(" on ", 1)[1].split()[0].rsplit(":", 1)
            with socket.create_connection(
                (host, int(port)), timeout=self.TIMEOUT
            ) as sock, sock.makefile("rw", encoding="utf-8") as stream:

                def call(payload):
                    stream.write(json.dumps(payload) + "\n")
                    stream.flush()
                    return json.loads(stream.readline())

                assert call({"op": "ping"})["pong"] is True
                answer = call({"op": "query", "pattern": pattern_to_json(query)})
                expected = json.loads(json.dumps(_encode_result(match(query, graph))))
                assert answer["ok"] and answer["result"] == expected
                assert answer["result"]["pairs"] > 0
                updated = call({"op": "update", "ops": [["+", source, target]]})
                assert updated["ok"] and updated["epoch"] == 1
                assert updated["applied"] == 1
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=self.TIMEOUT) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            reader.join(timeout=self.TIMEOUT)
            proc.stdout.close()

        graph.add_edge(source, target)
        loaded = SnapshotStore.load(persist, verify=True)
        assert loaded.graph.has_edge(source, target)
        assert loaded.graph.extends_token is not None  # a refreshed snapshot
        assert (persist / "patch.pkl").exists()
        assert match(query, loaded.graph) == match(query, graph)
