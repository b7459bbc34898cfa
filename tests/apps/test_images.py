"""Image service and distillation experiment tests."""

import pytest

from repro.apps.images import (ImageClient, ImageServer, build_library,
                               run_image_experiment)
from repro.net import Network


class TestLibrary:
    def test_catalogue_is_valid_simg(self):
        from repro.interp.image_prims import decode_image

        library = build_library()
        assert len(library) >= 5
        for name, blob in library.items():
            pixels, bits = decode_image(blob)
            assert pixels.size > 0
            assert bits == 8

    def test_deterministic(self):
        assert build_library() == build_library()

    def test_size_spread(self):
        sizes = sorted(len(b) for b in build_library().values())
        assert sizes[0] < 2000 < sizes[-1]


class TestService:
    def _net(self):
        net = Network(seed=31)
        s = net.add_host("s")
        c = net.add_host("c")
        net.link(s, c, bandwidth=10e6)
        net.finalize()
        library = build_library()
        server = ImageServer(net, s, library)
        client = ImageClient(net, c, s.address, library)
        return net, server, client

    def test_fetch_returns_original(self):
        net, server, client = self._net()
        client.fetch("icon.simg", at=0.0)
        net.run(until=1.0)
        assert len(client.results) == 1
        result = client.results[0]
        assert result.received_bytes == result.original_bytes
        assert (result.width, result.height) == (32, 32)

    def test_unknown_image_fails(self):
        net, server, client = self._net()
        client.fetch("nope.simg", at=0.0)
        net.run(until=1.0)
        assert client.failures == 1
        assert server.errors == 1

    def test_garbage_request_counted(self):
        net, server, client = self._net()
        client._socket.sendto(server.host.address, server.port,
                              b"FETCH x")
        net.run(until=1.0)
        assert server.errors == 1


class TestExperiment:
    @pytest.fixture(scope="class")
    def pair(self):
        plain = run_image_experiment(distillation=False)
        distilled = run_image_experiment(distillation=True)
        return plain, distilled

    def test_all_images_fetched(self, pair):
        plain, distilled = pair
        assert len(plain.figures["fetches"]) == 5
        assert len(distilled.figures["fetches"]) == 5

    def test_large_images_distilled(self, pair):
        _plain, distilled = pair
        poster = distilled.result_for("poster.simg")
        assert poster.distilled
        assert poster.received_bytes < 4000

    def test_small_images_untouched(self, pair):
        _plain, distilled = pair
        icon = distilled.result_for("icon.simg")
        assert not icon.distilled

    def test_latency_improved_dramatically(self, pair):
        plain, distilled = pair
        assert distilled.mean_latency() < plain.mean_latency() / 5

    def test_fidelity_traded_for_latency(self, pair):
        plain, distilled = pair
        poster_plain = plain.result_for("poster.simg")
        poster_dist = distilled.result_for("poster.simg")
        assert poster_dist.width < poster_plain.width
        assert poster_dist.latency < poster_plain.latency / 10

    def test_quantize_policy_variant(self):
        result = run_image_experiment(distillation=True,
                                      quantize_bits=4)
        assert result.figures["distilled_count"] >= 3

    def test_interpreter_backend(self):
        result = run_image_experiment(distillation=True,
                                      backend="interpreter")
        assert result.figures["distilled_count"] >= 3
