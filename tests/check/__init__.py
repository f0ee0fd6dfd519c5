"""Tests for the BSP race sanitizer and the seeded-mutation audit."""
