"""Unit/property test package (a real package so test modules import shared
helpers as ``tests.<module>`` -- e.g. ``tests.reference_eval`` -- and stay
namespaced apart from the ``benchmarks`` package in pytest's importer)."""
