"""The five rule families of the repro static analyzer."""
